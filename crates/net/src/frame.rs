//! The wire codec: length-prefixed, CRC-framed messages.
//!
//! Every message travels as one frame:
//!
//! ```text
//! len     u32  payload length in bytes (≤ the configured bound)
//! tag     u64  fabric tag (user / collective / checkpoint tag space)
//! crc     u32  CRC-32 of tag_le ++ covered payload (the checkpoint
//!              crate's implementation — one CRC for files and wire)
//! payload len bytes
//! ```
//!
//! All integers little-endian, matching the snapshot/delta formats. The
//! CRC covers the tag so a corrupted header cannot silently deliver a
//! payload to the wrong channel.
//!
//! ## Raw-payload frames (bit 61)
//!
//! A frame whose tag carries [`TAG_RAW_PAYLOAD_BIT`] holds bulk
//! checkpoint-stream data. Its header CRC covers the tag plus only the
//! *first* payload byte — the stream control prefix — because the bulk
//! bytes are one chunk of a record written by the shared `SnapshotWriter`
//! and carry *their own* trailing record CRC, verified by a single running
//! pass at the receiving end. Skipping the per-frame pass over multi-MiB
//! chunks halves the CRC work on the streaming path without weakening
//! end-to-end integrity: a flipped bulk byte still fails the record CRC
//! before anything is installed. Ordinary frames are fully covered, as
//! before.
//!
//! ## Payload bound
//!
//! A frame payload larger than the sanity bound — [`MAX_FRAME_PAYLOAD`]
//! (1 GiB) — is rejected on write, and a length field above it is treated
//! as stream corruption on read (never an allocation request). GB-scale
//! snapshots chunk through the checkpoint stream protocol instead of
//! growing single frames.
//!
//! A short read inside a frame is an `UnexpectedEof` error; a clean EOF at
//! a frame boundary decodes as `Ok(None)` — that is how a peer's orderly
//! shutdown is distinguished from a truncated stream.

use std::io::{self, IoSlice, Read, Write};

use ppar_ckpt::crc::Crc32;

/// Bytes of the fixed frame header (`len` + `tag` + `crc`).
pub const FRAME_HEADER_BYTES: usize = 16;

/// Sanity bound on a single frame's payload (1 GiB).
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Tag bit marking a *raw-payload* frame: the header CRC covers the tag
/// and the first payload byte only (see the [module docs](self)).
pub const TAG_RAW_PAYLOAD_BIT: u64 = 1 << 61;

/// Payload bytes of a raw frame still covered by the header CRC.
const RAW_COVERED_BYTES: usize = 1;

/// The payload prefix covered by the header CRC for `tag`.
fn covered(tag: u64, payload: &[u8]) -> &[u8] {
    if tag & TAG_RAW_PAYLOAD_BIT != 0 {
        &payload[..payload.len().min(RAW_COVERED_BYTES)]
    } else {
        payload
    }
}

/// CRC-32 of `tag ++ payload` as carried in the frame header (callers pass
/// the covered prefix for raw frames).
pub fn frame_crc(tag: u64, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&tag.to_le_bytes());
    c.update(payload);
    c.finish()
}

fn oversize_error(len: usize, max: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "frame payload of {len} bytes exceeds the {max}-byte bound \
             (chunk the message)"
        ),
    )
}

fn encode_header(tag: u64, payload: &[u8]) -> [u8; FRAME_HEADER_BYTES] {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..12].copy_from_slice(&tag.to_le_bytes());
    header[12..16].copy_from_slice(&frame_crc(tag, covered(tag, payload)).to_le_bytes());
    header
}

/// Encode one frame into `w` (no flush — callers batch frames and flush
/// once per burst).
pub fn write_frame(w: &mut impl Write, tag: u64, payload: &[u8]) -> io::Result<()> {
    write_frame_bounded(w, tag, payload, MAX_FRAME_PAYLOAD)
}

fn write_frame_bounded(w: &mut impl Write, tag: u64, payload: &[u8], max: usize) -> io::Result<()> {
    if payload.len() > max {
        return Err(oversize_error(payload.len(), max));
    }
    let header = encode_header(tag, payload);
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Encode one frame with a scatter-gather write: header and payload go to
/// the kernel as one `writev`, so a multi-MiB chunk is never memcpy'd into
/// an intermediate buffer. Meant for an *unbuffered* sink (the fabric's
/// send threads flush their `BufWriter` first, then call this on the bare
/// socket for large payloads).
pub fn write_frame_vectored(w: &mut impl Write, tag: u64, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(oversize_error(payload.len(), MAX_FRAME_PAYLOAD));
    }
    let header = encode_header(tag, payload);
    let mut header_off = 0usize;
    let mut payload_off = 0usize;
    while header_off < header.len() || payload_off < payload.len() {
        // Invariant: payload_off stays 0 until the header is fully written.
        let n = if header_off < header.len() {
            w.write_vectored(&[IoSlice::new(&header[header_off..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[payload_off..])
        };
        match n {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes mid-frame",
                ))
            }
            Ok(n) => {
                let header_part = n.min(header.len() - header_off);
                header_off += header_part;
                payload_off += n - header_part;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read until `buf` is full or EOF; returns the number of bytes read.
/// (`read_exact` cannot distinguish "EOF before any byte" from "EOF mid
/// buffer", and that distinction is the clean-shutdown signal.)
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Decode one frame from `r`. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed its connection in an orderly way); any short
/// read inside a frame, oversized length or CRC mismatch is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u64, Vec<u8>)>> {
    read_frame_bounded(r, MAX_FRAME_PAYLOAD)
}

fn read_frame_bounded(r: &mut impl Read, max: usize) -> io::Result<Option<(u64, Vec<u8>)>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        FRAME_HEADER_BYTES => {}
        n => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "stream truncated inside a frame header ({n} of {FRAME_HEADER_BYTES} bytes)"
                ),
            ))
        }
    }
    // Destructure the fixed-size header instead of slicing: no fallible
    // conversion, no panic path on this untrusted-input parse.
    let [l0, l1, l2, l3, t0, t1, t2, t3, t4, t5, t6, t7, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let tag = u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame announces a {len}-byte payload over the {max}-byte bound \
                 (corrupt length field)"
            ),
        ));
    }
    // Read into uninitialised capacity: zero-filling a multi-MiB payload
    // buffer first would be a full extra memory pass on the stream path.
    let mut payload = Vec::with_capacity(len);
    let got = r.take(len as u64).read_to_end(&mut payload)?;
    if got != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("stream truncated inside a frame payload ({got} of {len} bytes)"),
        ));
    }
    let computed = frame_crc(tag, covered(tag, &payload));
    if computed != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: header {crc:#010x}, computed {computed:#010x}"),
        ));
    }
    Ok(Some((tag, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `chunk` bytes per `read` call —
    /// models TCP's short reads.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf
                .len()
                .min(self.chunk.max(1))
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A writer that accepts at most `cap` bytes per call (and only from
    /// the first slice of a vectored write) — models short socket writes.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut n = 0;
            for b in bufs {
                let take = (self.cap - n).min(b.len());
                self.out.extend_from_slice(&b[..take]);
                n += take;
                if n == self.cap {
                    break;
                }
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn encode(frames: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (tag, payload) in frames {
            write_frame(&mut out, *tag, payload).unwrap();
        }
        out
    }

    #[test]
    fn roundtrip_single_frame() {
        let bytes = encode(&[(7, b"hello fabric")]);
        let mut r = bytes.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((7, b"hello fabric".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after frame");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let bytes = encode(&[(u64::MAX, b"")]);
        let mut r = bytes.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some((u64::MAX, Vec::new())));
    }

    #[test]
    fn coalesced_frames_decode_in_order() {
        // Several frames written into one buffer (one TCP segment carrying
        // many messages) decode back one at a time.
        let bytes = encode(&[(1, b"a"), (2, b"bb"), (3, b""), (1 << 62, b"ccc")]);
        let mut r = bytes.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some((1, b"a".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((2, b"bb".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((3, Vec::new())));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((1 << 62, b"ccc".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn split_reads_reassemble() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let bytes = encode(&[(42, &payload), (43, b"tail")]);
        for chunk in [1, 2, 3, 7, 16, 64] {
            let mut r = Trickle {
                data: &bytes,
                pos: 0,
                chunk,
            };
            assert_eq!(
                read_frame(&mut r).unwrap(),
                Some((42, payload.clone())),
                "chunk {chunk}"
            );
            assert_eq!(read_frame(&mut r).unwrap(), Some((43, b"tail".to_vec())));
            assert_eq!(read_frame(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut bytes = encode(&[(9, b"payload-bytes")]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        // Flipping a tag bit must fail the CRC: otherwise a damaged header
        // would deliver the payload to the wrong (src, tag) channel.
        let mut bytes = encode(&[(5, b"x")]);
        bytes[4] ^= 0x01;
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_header_and_payload_are_eof_errors() {
        let bytes = encode(&[(9, b"0123456789")]);
        // Inside the header.
        for cut in 1..FRAME_HEADER_BYTES {
            let err = read_frame(&mut &bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        // Inside the payload.
        let err = read_frame(&mut &bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_field_is_rejected_without_allocating() {
        let mut bytes = encode(&[(1, b"x")]);
        bytes[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt length field"), "{err}");
    }

    #[test]
    fn configured_bound_applies_to_write_and_read() {
        // The public entry points pass `MAX_FRAME_PAYLOAD` to the same
        // internal ones; a small bound keeps the test's payloads small.
        let payload = vec![0u8; 8192];
        let err = write_frame_bounded(&mut Vec::new(), 1, &payload, 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("4096-byte bound"), "{err}");

        let mut ok = Vec::new();
        write_frame_bounded(&mut ok, 1, &payload, 8192).unwrap();
        let err = read_frame_bounded(&mut ok.as_slice(), 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("4096-byte bound"), "{err}");
        assert_eq!(
            read_frame_bounded(&mut ok.as_slice(), 8192).unwrap(),
            Some((1, payload))
        );
    }

    #[test]
    fn vectored_write_equals_buffered_write_under_short_writes() {
        let payload: Vec<u8> = (0..5000u32).map(|i| (i * 11) as u8).collect();
        let expect = encode(&[(77, &payload)]);
        // Caps straddling the header boundary exercise every split of the
        // partial-write loop.
        for cap in [1, 3, 15, 16, 17, 100, 4096, 100_000] {
            let mut w = Dribble {
                out: Vec::new(),
                cap,
            };
            write_frame_vectored(&mut w, 77, &payload).unwrap();
            assert_eq!(w.out, expect, "cap {cap}");
        }
    }

    #[test]
    fn raw_frame_roundtrips_and_protects_its_prefix() {
        let tag = TAG_RAW_PAYLOAD_BIT | 0x33;
        let mut payload = vec![0u8; 1000];
        payload[0] = 7; // stream control prefix
        let mut bytes = Vec::new();
        write_frame(&mut bytes, tag, &payload).unwrap();
        assert_eq!(
            read_frame(&mut bytes.as_slice()).unwrap(),
            Some((tag, payload.clone()))
        );
        // The control prefix (first payload byte) is covered.
        let mut corrupt = bytes.clone();
        corrupt[FRAME_HEADER_BYTES] ^= 0x01;
        assert!(read_frame(&mut corrupt.as_slice()).is_err());
        // A corrupted header tag is covered too.
        let mut corrupt = bytes.clone();
        corrupt[4] ^= 0x01;
        assert!(read_frame(&mut corrupt.as_slice()).is_err());
        // Bulk bytes are *not* covered at the frame layer by design: their
        // integrity rides on the record's own trailing CRC, checked by the
        // stream receiver before anything is installed.
        let mut corrupt = bytes;
        let mid = FRAME_HEADER_BYTES + 500;
        corrupt[mid] ^= 0x01;
        let (got_tag, got_payload) = read_frame(&mut corrupt.as_slice()).unwrap().unwrap();
        assert_eq!(got_tag, tag);
        assert_ne!(
            got_payload, payload,
            "bulk corruption surfaces to the record CRC"
        );
    }

    #[test]
    fn empty_raw_frame_roundtrips() {
        let tag = TAG_RAW_PAYLOAD_BIT | 1;
        let mut bytes = Vec::new();
        write_frame(&mut bytes, tag, b"").unwrap();
        assert_eq!(
            read_frame(&mut bytes.as_slice()).unwrap(),
            Some((tag, Vec::new()))
        );
    }

    /// Any tag except the raw-payload bit: raw frames deliberately leave
    /// their bulk bytes to the record CRC one layer up.
    fn masked_tag() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::strategy::Strategy;
        proptest::prelude::any::<u64>().prop_map(|t| t & !TAG_RAW_PAYLOAD_BIT)
    }

    proptest::proptest! {
        /// Any batch of frames written back-to-back (coalesced) decodes to
        /// exactly the same (tag, payload) sequence through a reader that
        /// returns arbitrarily short reads. Raw and fully-covered tags mix
        /// freely, and the vectored writer must produce identical bytes.
        #[test]
        fn prop_roundtrip_split_and_coalesced(
            frames in proptest::collection::vec(
                (proptest::prelude::any::<u64>(),
                 proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200)),
                0..8,
            ),
            chunk in 1usize..32,
        ) {
            let mut bytes = Vec::new();
            let mut vectored = Vec::new();
            for (tag, payload) in &frames {
                write_frame(&mut bytes, *tag, payload).unwrap();
                write_frame_vectored(&mut vectored, *tag, payload).unwrap();
            }
            proptest::prop_assert_eq!(&bytes, &vectored);
            let mut r = Trickle { data: &bytes, pos: 0, chunk };
            for (tag, payload) in &frames {
                let got = read_frame(&mut r).unwrap();
                proptest::prop_assert_eq!(got, Some((*tag, payload.clone())));
            }
            proptest::prop_assert_eq!(read_frame(&mut r).unwrap(), None);
        }

        /// Flipping any single byte of an encoded frame never yields a
        /// silently different message: the decode fails, or (for a length
        /// byte that grows the frame) reports a truncated stream. Raw tags
        /// are excluded — their bulk payload is covered by the record CRC
        /// one layer up, not by the frame header.
        #[test]
        fn prop_single_byte_corruption_is_detected(
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..100),
            tag in masked_tag(),
            flip_bit in 0u8..8,
        ) {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, tag, &payload).unwrap();
            for pos in 0..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << flip_bit;
                match read_frame(&mut corrupt.as_slice()) {
                    Err(_) => {}
                    Ok(decoded) => proptest::prop_assert_eq!(
                        decoded, None,
                        "byte {} corrupted yet frame decoded", pos
                    ),
                }
            }
        }
    }
}
