//! Decoder hardening for the wire frame, the slice of the shared format
//! harness (`crates/ckpt/tests/decoders.rs`) that lives with the format.
//! The frame has one entry, [`read_frame`], over a byte stream.
//!
//! The rule: **an `Err`, never a panic, never an abort** — in debug, where
//! arithmetic overflow panics, and in release, where it wraps (CI runs this
//! file under both). A length field is never an allocation request beyond
//! the bound. One thing parses by design: a raw-payload frame's header CRC
//! covers only its first payload byte, so a flip in its bulk bytes is
//! delivered as is and left to the record CRC one layer up.

use std::io::{self, ErrorKind};

use ppar_net::frame::{
    read_frame, write_frame, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD, TAG_RAW_PAYLOAD_BIT,
};

type Frame = (u64, Vec<u8>);

/// Deterministic filler (xorshift), so a failing sweep names a repeatable
/// frame.
fn seeded(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x as u8
    };
    (0..len).map(|_| next()).collect()
}

/// One frame of `tag` over a seeded payload: the frame and its bytes.
fn frame(tag: u64, seed: u64) -> (Frame, Vec<u8>) {
    let payload = seeded(seed, 40);
    let mut bytes = Vec::new();
    write_frame(&mut bytes, tag, &payload).unwrap();
    ((tag, payload), bytes)
}

/// Every frame of `stream`, up to a clean end at a frame boundary or the
/// first error.
fn decode_all(stream: &[u8]) -> io::Result<Vec<Frame>> {
    let mut r = stream;
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut r)? {
        frames.push(frame);
    }
    Ok(frames)
}

fn kind(outcome: io::Result<Vec<Frame>>) -> Option<ErrorKind> {
    outcome.err().map(|e| e.kind())
}

const COVERED_TAG: u64 = 0x0123_4567_89ab;
const RAW_TAG: u64 = TAG_RAW_PAYLOAD_BIT | 0x33;

/// Every truncation of a stream is an end-of-stream error, except the cut
/// at a frame boundary, which is a clean end.
#[test]
fn every_truncation_is_an_error_unless_it_falls_between_frames() {
    for seed in [0x5eed, 20110913] {
        let (first, mut stream) = frame(COVERED_TAG, seed);
        let boundary = stream.len();
        let (second, raw) = frame(RAW_TAG, seed + 1);
        stream.extend_from_slice(&raw);
        assert_eq!(decode_all(&stream).unwrap(), vec![first.clone(), second]);
        for cut in 0..stream.len() {
            match cut {
                0 => assert_eq!(decode_all(&[]).unwrap(), vec![]),
                _ if cut == boundary => {
                    assert_eq!(decode_all(&stream[..cut]).unwrap(), vec![first.clone()])
                }
                _ => assert_eq!(
                    kind(decode_all(&stream[..cut])),
                    Some(ErrorKind::UnexpectedEof),
                    "seed {seed}: cut {cut}"
                ),
            }
        }
    }
}

/// A length field past the bound is refused before it is a capacity; one
/// that overruns the stream is an end-of-stream error; one that falls
/// short of the payload fails the CRC of a covered frame.
#[test]
fn absurd_lengths_are_errors_not_allocations() {
    let (_, good) = frame(COVERED_TAG, 1);
    let len = good.len() - FRAME_HEADER_BYTES;
    let with_len = |value: u32| {
        let mut bad = good.clone();
        bad[..4].copy_from_slice(&value.to_le_bytes());
        bad
    };
    for (value, want) in [
        (u32::MAX, ErrorKind::InvalidData),
        (MAX_FRAME_PAYLOAD as u32 + 1, ErrorKind::InvalidData),
        (len as u32 + 1, ErrorKind::UnexpectedEof),
        (len as u32 - 1, ErrorKind::InvalidData),
        (0, ErrorKind::InvalidData),
    ] {
        assert_eq!(
            kind(decode_all(&with_len(value))),
            Some(want),
            "length {value}"
        );
    }
}

/// Every single-bit flip of a covered frame is an error. A raw frame's
/// flips are errors in its header and its covered first payload byte, and
/// in its bulk bytes are delivered as flipped — exactly those bytes, under
/// the same tag.
#[test]
fn every_bit_flip_is_refused_or_left_to_the_record_crc() {
    for seed in [0x5eed, 20110913] {
        for tag in [COVERED_TAG, RAW_TAG] {
            let ((_, payload), bytes) = frame(tag, seed);
            let covered = if tag == RAW_TAG {
                FRAME_HEADER_BYTES + 1
            } else {
                bytes.len()
            };
            for bit in 0..bytes.len() * 8 {
                let at = bit / 8;
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << (bit % 8);
                let decoded = decode_all(&flipped);
                if at < covered {
                    assert!(
                        decoded.is_err(),
                        "seed {seed}, tag {tag:#x}: flip of bit {bit}"
                    );
                } else {
                    let mut want = payload.clone();
                    want[at - FRAME_HEADER_BYTES] ^= 1 << (bit % 8);
                    assert_eq!(
                        decoded.unwrap(),
                        vec![(tag, want)],
                        "seed {seed}: bit {bit}"
                    );
                }
            }
        }
    }
}
