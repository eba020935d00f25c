//! CRC-framed byte records — the one on-disk envelope every durable
//! artifact uses.
//!
//! A frame is `[len: u32 LE][crc32(payload): u32 LE][payload]`. WAL
//! segments are a sequence of frames; a tenant snapshot file is exactly
//! one frame. Decoding never trusts `len`: a frame whose claimed length
//! runs past the buffer is *torn* (a crash mid `write`), a frame whose
//! checksum mismatches is *corrupt* (torn inside the payload, or bit
//! rot) — both end the valid prefix without a panic.

use crate::crc32::crc32;
use crate::error::StoreError;

/// Frame header size: length + checksum.
pub const HEADER: usize = 8;

/// Appends one frame around `payload` to `out`: the reference the
/// in-place writers' frames are checked against.
#[cfg(test)]
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), StoreError> {
    let at = out.len();
    out.extend_from_slice(&[0; HEADER]);
    out.extend_from_slice(payload);
    seal_frame(&mut out[at..])
}

/// A frame to be built in place as text: the [`HEADER`] bytes as NULs,
/// so the writer's functions can append the payload to a `String`, and
/// [`seal_frame`] fills them in.
pub fn frame_text() -> String {
    "\0".repeat(HEADER)
}

/// Fills in the header of a frame built in place: `frame` is [`HEADER`]
/// reserved bytes followed by the payload. A payload the `u32` length
/// field cannot hold is an error, not a silently wrong length.
pub fn seal_frame(frame: &mut [u8]) -> Result<(), StoreError> {
    let (header, payload) = frame.split_at_mut(HEADER);
    let len = u32::try_from(payload.len()).map_err(|_| {
        StoreError::Encode(format!(
            "a {} byte payload overflows the frame length",
            payload.len()
        ))
    })?;
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// One decoded frame: the payload and the total encoded size consumed.
pub struct Frame<'a> {
    /// The checksummed payload.
    pub payload: &'a [u8],
    /// Bytes this frame occupies on disk (header + payload).
    pub encoded_len: usize,
}

/// Why decoding stopped at a given offset.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEnd {
    /// Clean end of input: the previous frame was the last one.
    Clean,
    /// A partial header or a payload shorter than its declared length —
    /// the torn tail a crash mid-append leaves behind.
    Torn,
    /// The payload is complete but fails its checksum.
    BadChecksum,
}

/// Decodes the frame starting at `buf[at..]`.
pub fn read_frame(buf: &[u8], at: usize) -> Result<Frame<'_>, FrameEnd> {
    let rest = &buf[at.min(buf.len())..];
    if rest.is_empty() {
        return Err(FrameEnd::Clean);
    }
    if rest.len() < HEADER {
        return Err(FrameEnd::Torn);
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let sum = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let Some(payload) = rest[HEADER..].get(..len) else {
        return Err(FrameEnd::Torn);
    };
    if crc32(payload) != sum {
        return Err(FrameEnd::BadChecksum);
    }
    Ok(Frame {
        payload,
        encoded_len: HEADER + len,
    })
}

/// Decodes a whole buffer's longest valid frame prefix: the payload
/// byte-ranges of every intact frame, plus how the prefix ended and how
/// many bytes after it were discarded.
pub fn read_all(buf: &[u8]) -> (Vec<&[u8]>, FrameEnd, usize) {
    let mut frames = Vec::new();
    let mut at = 0;
    loop {
        match read_frame(buf, at) {
            Ok(f) => {
                at += f.encoded_len;
                frames.push(f.payload);
            }
            Err(end) => return (frames, end, buf.len() - at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            append_frame(&mut out, p).unwrap();
        }
        out
    }

    #[test]
    fn roundtrips_a_sequence() {
        let buf = segment(&[b"one", b"", b"three"]);
        let (frames, end, lost) = read_all(&buf);
        assert_eq!(frames, vec![&b"one"[..], &b""[..], &b"three"[..]]);
        assert_eq!(end, FrameEnd::Clean);
        assert_eq!(lost, 0);
    }

    #[test]
    fn every_truncation_keeps_the_longest_valid_prefix() {
        let buf = segment(&[b"alpha", b"beta", b"gamma"]);
        for cut in 0..buf.len() {
            let (frames, end, lost) = read_all(&buf[..cut]);
            // Each recovered payload is one of the originals, in order.
            assert!(frames.len() <= 3);
            for (i, p) in frames.iter().enumerate() {
                assert_eq!(*p, [&b"alpha"[..], b"beta", b"gamma"][i]);
            }
            // A cut exactly on a frame boundary is a clean (shorter) log;
            // anywhere else the tail is torn and fully accounted for.
            let consumed: usize = frames.iter().map(|p| p.len() + HEADER).sum();
            assert_eq!(lost, cut - consumed);
            assert_eq!(
                end,
                if lost == 0 {
                    FrameEnd::Clean
                } else {
                    FrameEnd::Torn
                }
            );
        }
    }

    #[test]
    fn bit_flips_are_bad_checksums_not_panics() {
        let clean = segment(&[b"alpha", b"beta"]);
        for bit in 0..clean.len() * 8 {
            let mut buf = clean.clone();
            buf[bit / 8] ^= 1 << (bit % 8);
            let (frames, _, _) = read_all(&buf);
            // Whatever survives is a verbatim original prefix.
            for (i, p) in frames.iter().enumerate() {
                assert_eq!(*p, [&b"alpha"[..], b"beta"][i], "bit {bit}");
            }
        }
    }

    #[test]
    fn oversized_length_is_torn() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        buf.extend_from_slice(b"short");
        let (frames, end, lost) = read_all(&buf);
        assert!(frames.is_empty());
        assert_eq!(end, FrameEnd::Torn);
        assert_eq!(lost, buf.len());
    }
}
