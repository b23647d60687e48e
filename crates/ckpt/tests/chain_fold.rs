//! The restart fold, checked from outside the crate: a base plus a chain of
//! deltas reads back as exactly the state it describes, through both
//! layouts a chain lives in — the flat store and the content-addressed
//! store — and a delta's header is never believed before its CRC. A delta whose `base_count`, `seq` or `count` was flipped on disk is
//! a CRC error, never a shorter chain or another verdict; only a delta that
//! passes its CRC and names an older base ends the chain quietly.
//!
//! Records above the split size — a span a restart reads on several
//! threads, each part CRC'd on its own and the CRCs combined — fold exactly
//! as a front-to-back pass does: the same state, and for a corrupt record
//! the same error, down to the CRC values it names.

use std::fs;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use ppar_ckpt::crc::crc32;
use ppar_ckpt::store::{DeltaSource, FieldSource, Record, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CheckpointStore, DeltaMeta, RecordKey, Snapshot};
use ppar_core::error::{PparError, Result};

const TAG: &str = "seq";
/// Offsets into a delta record with mode tag [`TAG`]: magic 8, version 4,
/// the tag's length prefix and bytes, then `count`, `base_count`, `seq`.
const COUNT_AT: usize = 8 + 4 + 8 + TAG.len();
const BASE_COUNT_AT: usize = COUNT_AT + 8;
const SEQ_AT: usize = BASE_COUNT_AT + 8;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("chain_fold_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Deterministic generator (xorshift), so a failing case names a
/// repeatable chain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// Random bytes, `min..=max` of them.
    fn some_bytes(&mut self, min: usize, max: usize) -> Vec<u8> {
        let len = min + self.below(max - min + 1);
        self.bytes(len)
    }
}

/// One field of one delta.
enum Patch {
    Whole(Vec<u8>),
    /// `(offset, bytes)` in order; ranges may overlap, the last one wins.
    Sparse(u64, Vec<(usize, Vec<u8>)>),
}

impl Patch {
    fn apply(&self, bytes: &mut Vec<u8>) {
        match self {
            Patch::Whole(whole) => bytes.clone_from(whole),
            Patch::Sparse(_, ranges) => {
                for (off, patch) in ranges {
                    bytes[*off..off + patch.len()].copy_from_slice(patch);
                }
            }
        }
    }
}

/// A base and its deltas, with the state after each.
struct Chain {
    base: Snapshot,
    deltas: Vec<(u64, Vec<(String, Patch)>)>,
    /// `states[i]`: the state after `i` deltas.
    states: Vec<Snapshot>,
}

/// A random base and 0–6 deltas over it: whole fields, sparse ranges
/// (overlapping, empty, at the very end) and whole fields of a new length,
/// which later deltas keep patching.
fn chain(seed: u64) -> Chain {
    let mut rng = Rng(seed | 1);
    let mut state = Snapshot {
        mode_tag: TAG.into(),
        count: 10 + rng.below(5) as u64,
        rank: None,
        nranks: 1,
        fields: vec![
            ("G".into(), rng.some_bytes(1, 700)),
            ("energy".into(), rng.bytes(8)),
            ("cursor".into(), rng.some_bytes(0, 40)),
        ],
    };
    let base = state.clone();
    let mut states = vec![state.clone()];
    let mut deltas = Vec::new();
    for _ in 0..rng.below(7) {
        state.count += 1 + rng.below(3) as u64;
        let mut fields = Vec::new();
        for (name, bytes) in &mut state.fields {
            let patch = match rng.below(4) {
                0 => continue,
                1 => Patch::Whole(rng.bytes(bytes.len())),
                2 => Patch::Whole(rng.some_bytes(0, 2 * bytes.len() + 2)),
                _ => {
                    let ranges = (0..rng.below(5))
                        .map(|_| {
                            let off = rng.below(bytes.len() + 1);
                            (off, rng.some_bytes(0, bytes.len() - off))
                        })
                        .collect();
                    Patch::Sparse(bytes.len() as u64, ranges)
                }
            };
            patch.apply(bytes);
            fields.push((name.clone(), patch));
        }
        deltas.push((state.count, fields));
        states.push(state.clone());
    }
    Chain {
        base,
        deltas,
        states,
    }
}

fn delta_meta(count: u64, base_count: u64, seq: u32) -> DeltaMeta {
    DeltaMeta {
        mode_tag: TAG.into(),
        count,
        base_count,
        seq,
        rank: None,
        nranks: 1,
    }
}

fn put_base(t: &dyn CkptTransport, base: &Snapshot) {
    let fields: Vec<_> = base
        .fields
        .iter()
        .map(|(n, b)| (n.as_str(), FieldSource::Bytes(b)))
        .collect();
    t.put(&Record::Full(&base.meta(), &fields)).unwrap();
}

/// Put `c` into `t` through the golden encoder.
fn put_chain(t: &dyn CkptTransport, c: &Chain) {
    put_base(t, &c.base);
    for (seq, (count, fields)) in (1..).zip(&c.deltas) {
        let spans: Vec<(Vec<Range<usize>>, Vec<u8>)> = fields
            .iter()
            .map(|(_, patch)| match patch {
                Patch::Whole(_) => (Vec::new(), Vec::new()),
                Patch::Sparse(_, ranges) => (
                    ranges.iter().map(|(off, b)| *off..off + b.len()).collect(),
                    ranges.iter().flat_map(|(_, b)| b.iter().copied()).collect(),
                ),
            })
            .collect();
        let sources: Vec<_> = fields
            .iter()
            .zip(&spans)
            .map(|((name, patch), (ranges, payload))| {
                let source = match patch {
                    Patch::Whole(b) => DeltaSource::Full(FieldSource::Bytes(b)),
                    Patch::Sparse(full_len, _) => DeltaSource::DirtyBytes {
                        full_len: *full_len,
                        ranges,
                        payload,
                    },
                };
                (name.as_str(), source)
            })
            .collect();
        let meta = delta_meta(*count, c.base.count, seq);
        t.put(&Record::Delta(&meta, &sources)).unwrap();
    }
}

/// Every read shape of `t` against the chain's states.
fn check_reads(t: &dyn CkptTransport, c: &Chain, medium: &str) {
    let tip = c.states.last().unwrap();
    let mut lent = None;
    let found = t.with_merged(None, None, &mut |view| {
        lent = Some(view.to_snapshot());
        Ok(())
    });
    assert!(found.unwrap(), "{medium}: the chain has a base");
    assert_eq!(lent.as_ref(), Some(tip), "{medium}: the lend");
    let mut out = Vec::new();
    let written = t.write_merged_record(None, &mut out).unwrap();
    assert_eq!(written, Some(out.len() as u64));
    assert!(out == tip.encode(), "{medium}: the golden re-encoding");
    for state in &c.states {
        let pinned = t.get(None, Some(state.count)).unwrap();
        assert_eq!(pinned.as_ref(), Some(state), "{medium}: pinned read");
    }
}

proptest::proptest! {
    /// One fold for both layouts: each reads a random chain back as the
    /// state it describes, byte for byte.
    #[test]
    fn every_medium_folds_a_chain_to_the_state_it_describes(
        seed in proptest::prelude::any::<u64>(),
    ) {
        let c = chain(seed);
        let flat_dir = scratch("prop_flat");
        let cas_dir = scratch("prop_cas");
        let flat = CheckpointStore::new_flat(&flat_dir).unwrap();
        let cas = CheckpointStore::new_cas(&cas_dir).unwrap();
        for (medium, t) in [("flat", &flat as &dyn CkptTransport), ("cas", &cas)] {
            put_chain(t, &c);
            check_reads(t, &c, medium);
        }
        let _ = fs::remove_dir_all(&flat_dir);
        let _ = fs::remove_dir_all(&cas_dir);
    }
}

/// Where the store keeps byte `at` of record `name`: the file, or the chunk
/// object holding that byte, and the byte's offset there.
fn locate(store: &CheckpointStore, name: &str, mut at: usize) -> (PathBuf, usize) {
    let Some(cas) = store.cas() else {
        return (store.dir().join(name), at);
    };
    let manifest = cas.read_manifest(name).unwrap().unwrap();
    let chunk = manifest.chunks.iter().find(|chunk| {
        let inside = at < chunk.len as usize;
        if !inside {
            at -= chunk.len as usize;
        }
        inside
    });
    let hex = chunk.unwrap().digest.to_hex();
    (store.dir().join("objects").join(&hex[..2]).join(&hex), at)
}

/// Flip `mask` into byte `at` of record `name` where the store keeps it,
/// leaving the CRC as it was.
fn flip(store: &CheckpointStore, name: &str, at: usize, mask: u8) {
    let (path, at) = locate(store, name, at);
    let mut bytes = fs::read(&path).unwrap();
    bytes[at] ^= mask;
    fs::write(&path, bytes).unwrap();
}

fn open(layout: &str, dir: &Path) -> CheckpointStore {
    match layout {
        "flat" => CheckpointStore::new_flat(dir),
        _ => CheckpointStore::new_cas(dir),
    }
    .unwrap()
}

/// Base at 10, deltas 1 and 2 at 11 and 12, every field whole.
fn small_chain(store: &CheckpointStore) {
    let base = Snapshot {
        mode_tag: TAG.into(),
        count: 10,
        rank: None,
        nranks: 1,
        fields: vec![("G".into(), vec![0; 64])],
    };
    put_base(store, &base);
    for (seq, count) in [(1u32, 11u64), (2, 12)] {
        let whole = DeltaSource::Full(FieldSource::Bytes(&[seq as u8; 64]));
        store
            .put(&Record::Delta(&delta_meta(count, 10, seq), &[("G", whole)]))
            .unwrap();
    }
}

fn is_delta_crc_error<T: std::fmt::Debug>(outcome: Result<T>) -> bool {
    matches!(&outcome, Err(PparError::CorruptCheckpoint(msg)) if msg.contains("delta CRC mismatch"))
}

/// A flipped header field of a live delta — one that would read as stale
/// (`base_count`), out of order (`seq`) or not advancing (`count`) — is the
/// CRC error it is, through every read, never a shorter chain.
#[test]
fn a_flipped_header_of_a_live_delta_is_a_crc_error() {
    for layout in ["flat", "cas"] {
        for (field, at, mask) in [
            ("base_count", BASE_COUNT_AT, 0x01),
            ("seq", SEQ_AT, 0x04),
            ("count", COUNT_AT, 0x08),
        ] {
            let dir = scratch(&format!("flip_{layout}_{field}"));
            let store = open(layout, &dir);
            small_chain(&store);
            assert_eq!(store.get(None, None).unwrap().unwrap().count, 12);
            flip(&store, "ckpt_master_delta_2.bin", at, mask);
            let what = format!("{layout}: flipped {field}");
            assert!(is_delta_crc_error(store.get(None, None)), "{what}: get");
            assert!(
                is_delta_crc_error(store.get(None, Some(12))),
                "{what}: pinned"
            );
            let mut out = Vec::new();
            let streamed = store.write_merged_record(None, &mut out);
            assert!(is_delta_crc_error(streamed), "{what}: stream");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// A delta left over from an older base ends the chain quietly once its CRC
/// has vouched for it; the same delta corrupted is an error.
#[test]
fn only_a_verified_stale_delta_ends_the_chain_quietly() {
    for layout in ["flat", "cas"] {
        let dir = scratch(&format!("stale_{layout}"));
        let store = open(layout, &dir);
        // A new base at 20 beside the chain of an older base at 10: what a
        // crash between the new base's commit and its retiring of that
        // chain leaves behind.
        let base = SnapshotMeta {
            mode_tag: TAG.into(),
            count: 20,
            rank: None,
            nranks: 1,
        };
        let fields = [("G", FieldSource::Bytes(&[7; 64]))];
        store.put(&Record::Full(&base, &fields)).unwrap();
        for (seq, count) in [(1u32, 11u64), (2, 12)] {
            let whole = DeltaSource::Full(FieldSource::Bytes(&[seq as u8; 64]));
            store
                .put(&Record::Delta(&delta_meta(count, 10, seq), &[("G", whole)]))
                .unwrap();
        }
        let snap = store.get(None, None).unwrap().unwrap();
        assert_eq!((snap.count, snap.field("G")), (20, Some(&[7u8; 64][..])));

        // A byte of the stale delta's payload.
        flip(&store, "ckpt_master_delta_1.bin", 100, 0x10);
        assert!(is_delta_crc_error(store.get(None, None)), "{layout}: get");
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// records above the split size
// ---------------------------------------------------------------------------

/// The least a thread reads of a verified span when a restart splits it
/// across threads (the store's part size): a span of two of these or more
/// is read on up to every core, in parts that join at the span's midpoint
/// when there are two.
const SPLIT_PART: usize = 2 << 20;
/// A field above the split size, at an odd length.
const LARGE: usize = 2 * SPLIT_PART + (64 << 10) + 7;

/// A base whose field `G` is `len` random bytes, and one dense delta over
/// it (every byte of `G` dirty).
#[allow(clippy::single_range_in_vec_init)] // dirty ranges are span data
fn large_pair(store: &CheckpointStore, len: usize) {
    let mut rng = Rng(len as u64);
    let base = Snapshot {
        mode_tag: TAG.into(),
        count: 10,
        rank: None,
        nranks: 1,
        fields: vec![("G".into(), rng.bytes(len))],
    };
    put_base(store, &base);
    let payload = rng.bytes(len);
    let dense = DeltaSource::DirtyBytes {
        full_len: len as u64,
        ranges: &[0..len],
        payload: &payload,
    };
    store
        .put(&Record::Delta(&delta_meta(11, 10, 1), &[("G", dense)]))
        .unwrap();
}

/// The bytes of record `name` as the store keeps them.
fn record(store: &CheckpointStore, name: &str) -> Vec<u8> {
    let Some(cas) = store.cas() else {
        return fs::read(store.dir().join(name)).unwrap();
    };
    let mut bytes = Vec::new();
    let mut chunks = cas.record_reader(name).unwrap().unwrap();
    chunks.read_to_end(&mut bytes).unwrap();
    bytes
}

/// What a front-to-back pass says of the corrupt record `bytes`.
fn crc_mismatch(what: &str, bytes: &[u8]) -> String {
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    let computed = crc32(body);
    format!("{what}CRC mismatch: stored {stored:#010x}, computed {computed:#010x}")
}

fn corrupt<T: std::fmt::Debug>(outcome: Result<T>) -> String {
    match outcome {
        Err(PparError::CorruptCheckpoint(msg)) => msg,
        other => panic!("expected a corrupt checkpoint, got {other:?}"),
    }
}

/// A bit flipped in any part of a split span — whichever thread reads it —
/// is the very `CRC mismatch` one front-to-back pass reports, stored and
/// computed value alike, through the fold: in a base (its whole body is one
/// span) and in a dense delta (its payload).
#[test]
fn a_bit_flipped_in_any_part_is_the_sequential_crc_error() {
    for layout in ["flat", "cas"] {
        let dir = scratch(&format!("split_flip_{layout}"));
        let store = open(layout, &dir);
        large_pair(&store, LARGE);
        for (name, what) in [
            ("ckpt_master.bin", ""),
            ("ckpt_master_delta_1.bin", "delta "),
        ] {
            // The split span: a base's whole body, a dense delta's payload
            // (the last bytes of its body).
            let body = record(&store, name).len() - 4;
            let span = match what {
                "" => 0..body,
                _ => body - LARGE..body,
            };
            // A flip at every odd eighth: one in each part of a split into
            // up to four.
            for k in [1, 3, 5, 7] {
                let at = span.start + k * span.len() / 8;
                flip(&store, name, at, 0x20);
                let want = crc_mismatch(what, &record(&store, name));
                let case = format!("{layout}: {name} flipped at {at}");
                assert_eq!(corrupt(store.get(None, None)), want, "{case}: fold");
                flip(&store, name, at, 0x20);
            }
        }
        let tip = store.get(None, None).unwrap().unwrap();
        assert_eq!(tip.count, 11, "{layout}: every flip undone");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A record cut short inside what would be a helper's part is corrupt —
/// never a panic, never a lend — whether it is the base or the dense delta
/// over it; what is left still spans two parts, so the cut record is read
/// split. Under the content-addressed layout, a chunk object cut short in a
/// helper's part fails the read the same way.
#[test]
fn a_record_cut_inside_a_helpers_part_is_corrupt() {
    let len = 3 * SPLIT_PART;
    for layout in ["flat", "cas"] {
        for (name, key) in [
            ("ckpt_master.bin", RecordKey::full(None)),
            ("ckpt_master_delta_1.bin", RecordKey::delta(None, 1)),
        ] {
            let dir = scratch(&format!("split_cut_{layout}"));
            let store = open(layout, &dir);
            large_pair(&store, len);
            let bytes = record(&store, name);
            let mut sink = store.begin(key, 0).unwrap();
            sink.write_all(&bytes[..bytes.len() * 5 / 6]).unwrap();
            sink.commit().unwrap();
            let case = format!("{layout}: {name} cut");
            let mut lent = false;
            let outcome = store.with_merged(None, None, &mut |_| {
                lent = true;
                Ok(())
            });
            assert!(corrupt(outcome).contains("CRC mismatch"), "{case}");
            assert!(!lent, "{case}: nothing is lent");
            let _ = fs::remove_dir_all(&dir);
        }
    }
    let dir = scratch("split_cut_object");
    let store = open("cas", &dir);
    large_pair(&store, len);
    let (object, _) = locate(&store, "ckpt_master.bin", len * 3 / 4);
    let bytes = fs::read(&object).unwrap();
    fs::write(&object, &bytes[..bytes.len() / 2]).unwrap();
    let mut lent = false;
    let outcome = store.with_merged(None, None, &mut |_| {
        lent = true;
        Ok(())
    });
    assert!(outcome.is_err() && !lent, "a cut chunk object: {outcome:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// A chain whose every large span is read split: a dense range with a small
/// one across the field's middle, the field grown whole (the side table), a
/// dense patch there with a small range across its middle, then the field
/// whole at its old length. Both layouts fold it to the state it
/// describes, byte for byte, at every pinned prefix.
#[test]
fn a_chain_above_the_split_size_folds_to_the_state_it_describes() {
    let mut rng = Rng(0x5eed);
    let grown = LARGE + 777;
    let patches = [
        Patch::Sparse(
            LARGE as u64,
            vec![
                (1000, rng.bytes(LARGE - 5000)),
                (LARGE / 2 - 10, rng.bytes(20)),
            ],
        ),
        Patch::Whole(rng.bytes(grown)),
        Patch::Sparse(
            grown as u64,
            vec![(0, rng.bytes(grown)), (grown / 2 - 3, rng.bytes(9))],
        ),
        Patch::Whole(rng.bytes(LARGE)),
    ];
    let mut state = Snapshot {
        mode_tag: TAG.into(),
        count: 10,
        rank: None,
        nranks: 1,
        fields: vec![
            ("G".into(), rng.bytes(LARGE)),
            ("energy".into(), rng.bytes(8)),
        ],
    };
    let base = state.clone();
    let mut states = vec![state.clone()];
    let mut deltas = Vec::new();
    for patch in patches {
        state.count += 1;
        patch.apply(&mut state.fields[0].1);
        states.push(state.clone());
        deltas.push((state.count, vec![("G".to_string(), patch)]));
    }
    let c = Chain {
        base,
        deltas,
        states,
    };
    for layout in ["flat", "cas"] {
        let dir = scratch(&format!("split_chain_{layout}"));
        let store = open(layout, &dir);
        put_chain(&store, &c);
        check_reads(&store, &c, layout);
        let _ = fs::remove_dir_all(&dir);
    }
}
