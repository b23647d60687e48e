//! Decoder hardening, checked from outside the crate: the slices of a
//! shared harness for the on-disk / wire formats that live with this crate.
//! The task frontier (`PPARTSK1`) and the wire frame have theirs beside
//! their formats, in `crates/task/tests/decoders.rs` and
//! `crates/net/tests/decoders.rs`. This file holds the two
//! checkpoint record formats (`PPARCKP1` full records, `PPARDLT1` deltas),
//! each through every entry bytes can arrive by — the CRC-checked decode of
//! bytes in memory (full records only: only the master chain's fold reads
//! a delta, off the disk), the streamed decode of a record file on disk (its CRC
//! running as the bytes land, so a length is acted on before the CRC has
//! vouched for it), the trusted decode of a full record (no CRC, so
//! structure is all that stands between a bad length and the allocator;
//! the wire client's entry, whose CRC ran as the record arrived, and the
//! memory medium's) and the header peek
//! behind [`RecordKey::of_record`] — the content-addressed store's
//! `PPARMFT1` manifest, which has one entry, [`Manifest::decode`], always
//! CRC-checked, and the `PPARPRG1` region cursor, which has one entry,
//! [`RegionCursor::decode`], and no CRC at all (it travels inside records
//! and broadcasts that carry their own).
//!
//! The rule for every entry: **an `Err`, never a panic, never an abort** —
//! in debug, where arithmetic overflow panics, and in release, where it
//! wraps (CI runs this file under both). An absurd length or count must be
//! refused before it sizes a read or an allocation: sized from one, either
//! would abort.

use std::fs;
use std::path::PathBuf;

use ppar_ckpt::crc::crc32;
use ppar_ckpt::store::{DeltaSource, FieldSource, Record, Snapshot, SnapshotView};
use ppar_ckpt::transport::{CkptTransport, RecordKey};
use ppar_ckpt::{CheckpointStore, ChunkDigest, ChunkRef, DeltaMeta, Manifest};
use ppar_core::error::{PparError, Result};
use ppar_core::runtime::{LoopFrame, RegionCursor};
use ppar_core::shared::SharedVec;

const TAG: &str = "seq";
/// Offset of the mode tag's `u64` length prefix in either format.
const FULL_TAG_LEN_AT: usize = 8;
const DELTA_TAG_LEN_AT: usize = 12;
/// Offset of `nfields`: magic, tag, count, rank, nranks — and for a delta
/// also version, base_count and seq.
const FULL_NFIELDS_AT: usize = 8 + 8 + TAG.len() + 8 + 4 + 4;
const DELTA_NFIELDS_AT: usize = 8 + 4 + 8 + TAG.len() + 8 + 8 + 4 + 4 + 4;

/// Deterministic filler (xorshift), so a failing sweep names a repeatable
/// record.
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

fn full_record(seed: u64) -> Vec<u8> {
    Snapshot {
        mode_tag: TAG.into(),
        count: 7,
        rank: None,
        nranks: 1,
        fields: vec![
            ("G".into(), seeded(seed, 96)),
            ("empty".into(), Vec::new()),
            ("energy".into(), seeded(seed + 1, 8)),
        ],
    }
    .encode()
}

fn delta_meta() -> DeltaMeta {
    DeltaMeta {
        mode_tag: TAG.into(),
        count: 9,
        base_count: 7,
        seq: 1,
        rank: None,
        nranks: 1,
    }
}

/// A delta over [`full_record`]: two sparse ranges into `G`, `energy` whole.
fn delta_record(seed: u64) -> Vec<u8> {
    let (ranges, sparse, whole) = ([8..24, 40..48], seeded(seed + 2, 24), seeded(seed + 3, 8));
    let mut g = vec![0u8; 96];
    g[8..24].copy_from_slice(&sparse[..16]);
    g[40..48].copy_from_slice(&sparse[16..]);
    let g = SharedVec::from_vec(g);
    let fields = [
        (
            "G",
            DeltaSource::DirtyCell {
                cell: &g,
                ranges: &ranges,
            },
        ),
        ("energy", DeltaSource::Full(FieldSource::Bytes(&whole))),
    ];
    let record = Record::Delta(&delta_meta(), &fields);
    record.encode(Vec::new()).unwrap().1
}

/// A manifest of three chunks, the last one short.
fn manifest(seed: u64) -> Vec<u8> {
    let digests = seeded(seed, 3 * 16);
    let chunks: Vec<ChunkRef> = digests
        .chunks(16)
        .zip([8192u32, 8192, 517])
        .map(|(digest, len)| ChunkRef {
            digest: ChunkDigest(digest.try_into().unwrap()),
            len,
        })
        .collect();
    Manifest {
        chunk_size: 8192,
        total_len: chunks.iter().map(|r| r.len as u64).sum(),
        chunks,
    }
    .encode()
}

/// Overwrite `bytes[at..]` with `value` and make the CRC trailer valid
/// again, so only structure can refuse the record.
fn patched<const N: usize>(record: &[u8], at: usize, value: [u8; N]) -> Vec<u8> {
    let mut bytes = record.to_vec();
    bytes[at..at + N].copy_from_slice(&value);
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

fn full_checked(bytes: &[u8]) -> Result<()> {
    Snapshot::decode(bytes).map(|_| ())
}

fn full_trusted(bytes: &[u8]) -> Result<()> {
    SnapshotView::decode_trusted(bytes).map(|_| ())
}

/// A flat checkpoint directory of this thread's own, holding only the
/// [`full_record`] base and whatever `record` is written there as `name`.
fn on_disk(name: &str, record: &[u8]) -> Result<CheckpointStore> {
    let thread = format!("{:?}", std::thread::current().id());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "decoders_{}_{}",
        std::process::id(),
        thread.trim_start_matches("ThreadId(").trim_end_matches(')')
    ));
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::new_flat(&dir)?;
    fs::write(dir.join("ckpt_master.bin"), full_record(1))?;
    fs::write(dir.join(name), record)?;
    Ok(store)
}

/// The full format's streamed entry: the bytes as the base on disk, read
/// whole by the fold.
fn full_streamed(bytes: &[u8]) -> Result<()> {
    on_disk("ckpt_master.bin", bytes)?.get(None, None).map(drop)
}

/// The delta format's streamed entry: the bytes as delta 1 on disk over
/// [`full_record`], folded — each payload read straight into the merged
/// record as its CRC runs.
fn delta_streamed(bytes: &[u8]) -> Result<()> {
    on_disk("ckpt_master_delta_1.bin", bytes)?
        .get(None, None)
        .map(drop)
}

/// One way bytes can arrive at a decoder.
type Entry = fn(&[u8]) -> Result<()>;

/// The entries that check the CRC, per format.
const FULL_CHECKED: [Entry; 2] = [full_checked, full_streamed];
const DELTA_CHECKED: [Entry; 1] = [delta_streamed];

/// The entries that trust the CRC, per format. A delta has none: every
/// delta is read off the disk, CRC-verified.
const FULL_TRUSTED: [Entry; 1] = [full_trusted];
const DELTA_TRUSTED: [Entry; 0] = [];

fn is_corrupt(outcome: Result<()>) -> bool {
    matches!(outcome, Err(PparError::CorruptCheckpoint(_)))
}

/// Every length prefix a record carries — the mode tag's, a field name's, a
/// payload's, a sparse range's — set to values whose sum with the read
/// position overflows, nearly overflows, or just overruns the record.
#[test]
fn absurd_lengths_are_errors_not_panics() {
    let full = full_record(1);
    let delta = delta_record(1);
    let name_len_at = |nfields_at: usize| nfields_at + 4;
    // Full: the first field is "G" (name prefix, 1 byte, payload prefix).
    let full_sites = [
        FULL_TAG_LEN_AT,
        name_len_at(FULL_NFIELDS_AT),
        name_len_at(FULL_NFIELDS_AT) + 8 + 1,
    ];
    // Delta: "G" is sparse (name prefix, 1 byte, kind, full_len, nranges,
    // two ranges of offset + length, 24 range bytes); "energy" follows whole
    // (name prefix, 6 bytes, kind, payload prefix).
    let range_map = name_len_at(DELTA_NFIELDS_AT) + 8 + 1 + 1 + 8 + 4;
    let delta_sites = [
        DELTA_TAG_LEN_AT,
        name_len_at(DELTA_NFIELDS_AT),
        range_map + 8,
        range_map + 2 * 16 + 24 + 8 + 6 + 1,
    ];
    for (record, sites, checked, trusted) in [
        (&full, &full_sites[..], &FULL_CHECKED[..], &FULL_TRUSTED[..]),
        (
            &delta,
            &delta_sites[..],
            &DELTA_CHECKED[..],
            &DELTA_TRUSTED[..],
        ),
    ] {
        assert!(checked
            .iter()
            .chain(trusted)
            .all(|entry| entry(record).is_ok()));
        for &site in sites {
            for value in [u64::MAX, usize::MAX as u64 - 7, record.len() as u64 + 1] {
                let bad = patched(record, site, value.to_le_bytes());
                for (i, entry) in checked.iter().enumerate() {
                    assert!(entry(&bad).is_err(), "checked #{i}, {value:#x} at {site}");
                }
                for entry in trusted {
                    assert!(entry(&bad).is_err(), "trusted, {value:#x} at {site}");
                }
                // The peek reads the header only, of a whole record or of
                // its head: it refuses a bad tag length and never trips
                // over anything behind the header.
                let in_header = site == FULL_TAG_LEN_AT || site == DELTA_TAG_LEN_AT;
                for head in [&bad[..], &bad[..64]] {
                    let key = RecordKey::of_record(head);
                    assert_eq!(key.is_err(), in_header, "{value:#x} at {site}");
                }
            }
        }
    }
}

/// A count the record cannot possibly hold is refused before it is used as
/// a capacity: the 43-byte full record naming `u32::MAX` fields (which used
/// to abort the process with a 171 GB allocation request), and its delta
/// twins for `nfields` and `nranges`.
#[test]
fn absurd_counts_are_refused_before_they_allocate() {
    let empty = Snapshot {
        mode_tag: TAG.into(),
        count: 7,
        rank: None,
        nranks: 1,
        fields: Vec::new(),
    }
    .encode();
    assert_eq!(empty.len(), 43);
    let bad = patched(&empty, FULL_NFIELDS_AT, u32::MAX.to_le_bytes());
    for entry in FULL_CHECKED.iter().chain(&FULL_TRUSTED) {
        assert!(is_corrupt(entry(&bad)));
    }

    let delta = delta_record(1);
    let nranges_at = DELTA_NFIELDS_AT + 4 + 8 + 1 + 1 + 8;
    for site in [DELTA_NFIELDS_AT, nranges_at] {
        let bad = patched(&delta, site, u32::MAX.to_le_bytes());
        for (i, entry) in DELTA_CHECKED.iter().enumerate() {
            assert!(is_corrupt(entry(&bad)), "checked #{i}, count at {site}");
        }
    }
}

/// A record that runs on past its end: extra bytes after the trailer are a
/// CRC mismatch, and with the CRC made valid over them, bytes the layout
/// does not account for — through every entry.
#[test]
fn an_extended_record_is_refused() {
    for (record, checked, trusted) in [
        (full_record(1), &FULL_CHECKED[..], &FULL_TRUSTED[..]),
        (delta_record(1), &DELTA_CHECKED[..], &DELTA_TRUSTED[..]),
    ] {
        let body = &record[..record.len() - 4];
        for extra in [1, 4, 7, 300] {
            let mut longer = record.clone();
            longer.extend(seeded(extra as u64, extra));
            let mut resealed = body.to_vec();
            resealed.extend(seeded(extra as u64, extra));
            resealed.extend(crc32(&resealed).to_le_bytes());
            for (i, entry) in checked.iter().enumerate() {
                assert!(
                    entry(&longer).is_err(),
                    "checked #{i}, {extra} after the CRC"
                );
                assert!(
                    is_corrupt(entry(&resealed)),
                    "checked #{i}, {extra} resealed"
                );
            }
            for entry in trusted {
                assert!(is_corrupt(entry(&resealed)), "trusted, {extra} resealed");
            }
        }
    }
}

/// The sweep: every single-bit flip and every truncation of a seeded
/// record, through every entry. A checked entry rejects them all (CRC-32
/// catches any single-bit error, a truncation cannot parse to the end); a
/// trusted entry rejects the truncations and must merely survive the flips
/// — accepting flipped *payload* bytes is what "trusted" means.
#[test]
fn every_bit_flip_and_truncation_is_survived_and_the_checked_ones_rejected() {
    for seed in [0x5eed, 20110913] {
        for (record, checked, trusted) in [
            (full_record(seed), &FULL_CHECKED[..], &FULL_TRUSTED[..]),
            (delta_record(seed), &DELTA_CHECKED[..], &DELTA_TRUSTED[..]),
        ] {
            assert!(checked.iter().chain(trusted).all(|e| e(&record).is_ok()));
            for bit in 0..record.len() * 8 {
                let mut flipped = record.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                for (i, entry) in checked.iter().enumerate() {
                    let refused = entry(&flipped).is_err();
                    assert!(refused, "seed {seed}: checked #{i}, flip of bit {bit}");
                }
                trusted.iter().for_each(|entry| drop(entry(&flipped)));
                let _ = RecordKey::of_record(&flipped);
            }
            for cut in 0..record.len() {
                for (i, entry) in checked.iter().enumerate() {
                    let refused = entry(&record[..cut]).is_err();
                    assert!(refused, "seed {seed}: checked #{i}, cut {cut}");
                }
                for entry in trusted {
                    assert!(entry(&record[..cut]).is_err(), "seed {seed}: cut {cut}");
                }
                let _ = RecordKey::of_record(&record[..cut]);
            }
        }
    }
}

/// The `PPARMFT1` slice. The sweep: every single-bit flip and every
/// truncation of a seeded manifest is an `Err`. Then what the CRC cannot
/// catch because it has been made valid again: a chunk count, a total
/// length and an entry length that disagree with the entries present are
/// refused — the count before it is used as a capacity.
#[test]
fn every_manifest_bit_flip_truncation_and_inconsistency_is_an_error() {
    for seed in [0x5eed, 20110913] {
        let good = manifest(seed);
        assert_eq!(Manifest::decode(&good).unwrap().chunks.len(), 3);
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Manifest::decode(&flipped).is_err(),
                "seed {seed}: flip of bit {bit}"
            );
        }
        for cut in 0..good.len() {
            assert!(
                Manifest::decode(&good[..cut]).is_err(),
                "seed {seed}: cut {cut}"
            );
        }
    }

    // Header 16 bytes, three 20-byte entries (digest, then `len`), then the
    // trailer: total_len u64, nchunks u32, crc u32.
    let good = manifest(1);
    let total_len_at = 16 + 3 * 20;
    let nchunks_at = total_len_at + 8;
    let decode = |bytes: &[u8]| Manifest::decode(bytes).map(|_| ());
    for nchunks in [u32::MAX, 4, 2, 0] {
        let bad = patched(&good, nchunks_at, nchunks.to_le_bytes());
        assert!(is_corrupt(decode(&bad)), "{nchunks} chunks announced");
    }
    for total_len in [u64::MAX, 0] {
        let bad = patched(&good, total_len_at, total_len.to_le_bytes());
        assert!(is_corrupt(decode(&bad)), "total_len {total_len}");
    }
    let bad = patched(&good, 16 + 16, u32::MAX.to_le_bytes());
    assert!(is_corrupt(decode(&bad)), "an entry longer than the record");
    let bad = patched(&good, 8, 2u32.to_le_bytes());
    assert!(is_corrupt(decode(&bad)), "an unknown manifest version");
}

/// A cursor two loops deep, names and numbers seeded.
fn cursor(seed: u64) -> RegionCursor {
    let word = |i: u64| u64::from_le_bytes(seeded(seed + i, 8).try_into().unwrap());
    RegionCursor {
        point_count: word(0),
        frames: vec![
            LoopFrame {
                name: "iters".into(),
                start: 0,
                end: word(1),
                index: word(2),
                clock_at_entry: word(3),
            },
            LoopFrame {
                name: format!("inner-{seed}"),
                start: word(4),
                end: word(5),
                index: word(6),
                clock_at_entry: word(7),
            },
        ],
    }
}

/// The `PPARPRG1` slice. The format has no CRC, so a flipped bit may land
/// in a number or a name and still parse: the rule is that it parses to
/// *what the flipped bytes say* — a different cursor that re-encodes to
/// exactly those bytes — or is refused, and that every structural byte
/// (magic, version, the reserved words, a count, a name length) is refused.
/// Every truncation is refused. Then the counts and lengths nothing checks
/// but the decoder: absurd ones are an `Err` before they are a capacity.
#[test]
fn every_cursor_bit_flip_truncation_and_absurd_count_is_refused_or_faithful() {
    // magic 8, version 4, point_count 8, reserved 8, frame count 4, then
    // the first frame: name length 4, "iters", four u64.
    const RESERVED_AT: usize = 8 + 4 + 8;
    const NFRAMES_AT: usize = RESERVED_AT + 8;
    const NAME_LEN_AT: usize = NFRAMES_AT + 4;
    for seed in [0x5eed, 20110913] {
        let good = cursor(seed);
        let bytes = good.encode();
        assert_eq!(RegionCursor::decode(&bytes).unwrap(), good);
        let tail_at = bytes.len() - 8;
        let structural =
            |at: usize| at < 12 || (RESERVED_AT..NAME_LEN_AT + 4).contains(&at) || at >= tail_at;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match RegionCursor::decode(&flipped) {
                Err(_) => {}
                Ok(other) => {
                    assert!(
                        !structural(bit / 8),
                        "seed {seed}: flip of bit {bit} accepted"
                    );
                    assert_ne!(other, good, "seed {seed}: flip of bit {bit} ignored");
                    assert_eq!(other.encode(), flipped, "seed {seed}: flip of bit {bit}");
                }
            }
        }
        for cut in 0..bytes.len() {
            assert!(
                RegionCursor::decode(&bytes[..cut]).is_err(),
                "seed {seed}: cut {cut}"
            );
        }
    }

    let bytes = cursor(1).encode();
    let decode = |bytes: &[u8]| RegionCursor::decode(bytes).map(|_| ());
    let with = |at: usize, value: u32| {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
        bad
    };
    for (at, what, values) in [
        (
            NFRAMES_AT,
            "frames",
            [u32::MAX, u32::MAX / 2, bytes.len() as u32, 3],
        ),
        (
            NAME_LEN_AT,
            "name bytes",
            [u32::MAX, u32::MAX - 3, bytes.len() as u32, 6],
        ),
    ] {
        for value in values {
            assert!(is_corrupt(decode(&with(at, value))), "{value} {what}");
        }
    }
    // What version 1 reserves and never writes: a construct-sequence
    // position, `single` flags, reduction partials.
    for at in [RESERVED_AT, bytes.len() - 8, bytes.len() - 4] {
        for value in [1, u32::MAX] {
            assert!(is_corrupt(decode(&with(at, value))), "{value} at {at}");
        }
    }
}
