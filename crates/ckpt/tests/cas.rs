//! Property and crash tests for the content-addressed checkpoint store.
//!
//! Three guarantees are exercised here, beyond the unit tests inside
//! `cas.rs`:
//!
//! * the manifest codec roundtrips arbitrary chunk tables bit-for-bit;
//! * mark-and-sweep GC never collects a chunk referenced by a live
//!   manifest, under randomized interleavings of writes, overwrites,
//!   deletes and sweeps — including records that share chunk content;
//! * a crash between stage and promote leaves the store fully readable,
//!   and the next sweep rolls the orphaned journal back.

use std::io::Read;
use std::time::Duration;

use ppar_ckpt::digest::ChunkDigest;
use ppar_ckpt::{CasConfig, CasStore, ChunkRef, Manifest};
use proptest::prelude::*;

fn tmp(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_cas_prop_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Record `name` read back whole through its chunk reader.
fn read_record(store: &CasStore, name: &str) -> ppar_core::error::Result<Option<Vec<u8>>> {
    let Some(mut chunks) = store.record_reader(name)? else {
        return Ok(None);
    };
    let mut bytes = Vec::new();
    chunks.read_to_end(&mut bytes)?;
    Ok(Some(bytes))
}

/// A small config that chunks aggressively and sweeps with no grace
/// window, so interleavings hit the interesting paths immediately.
fn cfg() -> CasConfig {
    CasConfig {
        chunk_size: 64,
        gc_grace: Duration::ZERO,
        ..CasConfig::default()
    }
}

/// One step of the randomized store workload.
#[derive(Debug, Clone)]
enum Op {
    /// Write (or overwrite) record `rec<slot>` with content derived from
    /// `seed` and `len`. Seeds repeat across records, so chunks are
    /// shared between live manifests — the case GC must not break.
    Put { slot: u8, seed: u8, len: u16 },
    /// Remove record `rec<slot>` if it exists.
    Remove { slot: u8 },
    /// Mark-and-sweep.
    Gc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted choice by tag: 0–3 put, 4–5 remove, 6–7 sweep.
    (0u8..8, 0u8..4, 0u8..3, 0u16..400).prop_map(|(tag, slot, seed, len)| match tag {
        0..=3 => Op::Put { slot, seed, len },
        4..=5 => Op::Remove { slot },
        _ => Op::Gc,
    })
}

/// Content for a record: deterministic in (seed, len) only, so two slots
/// putting the same seed share every chunk.
fn content(seed: u8, len: u16) -> Vec<u8> {
    (0..len as usize)
        .map(|i| (i ^ (i >> 8)) as u8 ^ seed.wrapping_mul(97))
        .collect()
}

/// Build a `ChunkRef` from two generated words (the shim has no `[u8; 16]`
/// strategy).
fn digest_ref(lo: u64, hi: u64, len: u32) -> ChunkRef {
    let mut d = [0u8; 16];
    d[..8].copy_from_slice(&lo.to_le_bytes());
    d[8..].copy_from_slice(&hi.to_le_bytes());
    ChunkRef {
        digest: ChunkDigest(d),
        len,
    }
}

proptest! {
    /// decode(encode(m)) == m for arbitrary chunk tables.
    #[test]
    fn prop_manifest_roundtrip(
        chunk_size in 1u32..1 << 20,
        entries in proptest::collection::vec((any::<u64>(), any::<u64>(), 1u32..1 << 16), 0..64),
    ) {
        let chunks: Vec<ChunkRef> = entries.iter().map(|&(lo, hi, len)| digest_ref(lo, hi, len)).collect();
        let m = Manifest {
            chunk_size,
            total_len: chunks.iter().map(|r| r.len as u64).sum(),
            chunks,
        };
        let back = Manifest::decode(&m.encode()).expect("decode");
        prop_assert_eq!(back, m);
    }

    /// A flipped byte anywhere in an encoded manifest never decodes to a
    /// *different* valid manifest: it either errors or decodes equal.
    #[test]
    fn prop_manifest_corruption_detected(
        entries in proptest::collection::vec((any::<u64>(), any::<u64>(), 1u32..1 << 16), 1..16),
        pos_frac in 0.0f64..1.0,
        flip in 1u16..256,
    ) {
        let chunks: Vec<ChunkRef> = entries.iter().map(|&(lo, hi, len)| digest_ref(lo, hi, len)).collect();
        let m = Manifest {
            chunk_size: 8192,
            total_len: chunks.iter().map(|r| r.len as u64).sum(),
            chunks,
        };
        let mut bytes = m.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip as u8;
        if let Ok(back) = Manifest::decode(&bytes) {
            prop_assert_eq!(back, m);
        }
    }

    /// GC never collects a chunk referenced by a live manifest: after any
    /// interleaving of puts, removes and sweeps, every live record reads
    /// back bit-for-bit and every removed record is gone.
    #[test]
    fn prop_gc_never_collects_live_chunks(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ppar_cas_prop_gc_{}_{}",
            std::process::id(),
            // Proptest runs cases on one thread; a thread-local counter
            // keeps directories distinct across cases.
            GC_CASE.with(|c| { let v = c.get(); c.set(v + 1); v })
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CasStore::open_with(&dir, cfg()).expect("open");
        let mut model: std::collections::BTreeMap<String, Vec<u8>> = Default::default();

        for op in &ops {
            match *op {
                Op::Put { slot, seed, len } => {
                    let name = format!("rec{slot}");
                    let bytes = content(seed, len);
                    let mut txn = store.begin().expect("begin");
                    txn.append(&bytes).expect("append");
                    txn.commit(&name).expect("commit");
                    model.insert(name, bytes);
                }
                Op::Remove { slot } => {
                    let name = format!("rec{slot}");
                    store.remove_manifest(&name).expect("remove");
                    model.remove(&name);
                }
                Op::Gc => {
                    store.gc().expect("gc");
                }
            }
            // Every live record must survive every step, GC included.
            for (name, want) in &model {
                let got = read_record(&store, name).expect("read").expect("live record");
                prop_assert_eq!(&got, want, "record {} damaged", name);
            }
        }
        // Final sweep: removed records stay gone, live ones stay intact.
        store.gc().expect("final gc");
        for slot in 0..4u8 {
            let name = format!("rec{slot}");
            let got = read_record(&store, &name).expect("read");
            prop_assert_eq!(got.as_ref(), model.get(&name), "record {} after sweep", name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

thread_local! {
    static GC_CASE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Crash between stage and promote: the sealed journal is on disk but the
/// manifest never appeared. The store stays readable (previous generation
/// intact), a reopen sees the same state, and the next sweep rolls the
/// orphan back without touching live chunks.
#[test]
fn crash_mid_promote_leaves_store_readable() {
    let dir = tmp("crash");
    let gen1 = content(1, 900);
    let gen2 = content(2, 900);
    {
        let store = CasStore::open_with(&dir, cfg()).expect("open");
        let mut txn = store.begin().expect("begin");
        txn.append(&gen1).expect("append");
        txn.commit("rec").expect("commit gen1");

        let mut txn = store.begin().expect("begin gen2");
        txn.append(&gen2).expect("append gen2");
        let staged = txn.stage("rec").expect("stage");
        staged.simulate_crash();
    }
    // Reopen: the promote never happened, so gen1 is still the record.
    let store = CasStore::open_with(&dir, cfg()).expect("reopen");
    assert_eq!(
        read_record(&store, "rec").expect("read").expect("record"),
        gen1,
        "crashed stage must not replace the live generation"
    );
    // The sweep rolls the orphaned journal back (gen2's novel chunks go)
    // and leaves gen1 readable.
    let gc = store.gc().expect("gc");
    assert!(
        gc.journals_discarded >= 1,
        "orphaned journal must be rolled back, got {gc:?}"
    );
    assert_eq!(
        read_record(&store, "rec").expect("read").expect("record"),
        gen1
    );
    // Nothing further to roll back.
    assert_eq!(store.gc().expect("gc").journals_discarded, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An aborted (dropped) transaction before stage also leaves no manifest
/// and survives a sweep.
#[test]
fn dropped_txn_rolls_back() {
    let dir = tmp("drop");
    let store = CasStore::open_with(&dir, cfg()).expect("open");
    let gen1 = content(3, 500);
    let mut txn = store.begin().expect("begin");
    txn.append(&gen1).expect("append");
    txn.commit("rec").expect("commit");

    let mut txn = store.begin().expect("begin 2");
    txn.append(&content(4, 500)).expect("append 2");
    drop(txn);

    assert_eq!(read_record(&store, "rec").unwrap().unwrap(), gen1);
    store.gc().expect("gc");
    assert_eq!(read_record(&store, "rec").unwrap().unwrap(), gen1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dedup handshake's transaction owns its journal until the rename:
/// an abort removes it, and a commit — which drops the transaction on its
/// way out — leaves the promoted manifest exactly where the rename put it.
#[test]
fn dedup_commit_keeps_the_manifest_and_abort_removes_the_journal() {
    let dir = tmp("dedup_txn");
    let store = CasStore::open_with(&dir, cfg()).expect("open");
    let record = content(5, 300);
    let chunks: Vec<&[u8]> = record.chunks(cfg().chunk_size).collect();
    let refs: Vec<ChunkRef> = chunks
        .iter()
        .map(|c| ChunkRef {
            digest: ChunkDigest::of(c),
            len: c.len() as u32,
        })
        .collect();
    let journals = || std::fs::read_dir(dir.join("journal")).unwrap().count();

    let txn = store.begin_dedup(&refs, 300).expect("begin");
    assert_eq!(journals(), 1, "the journal pins the chunks from the start");
    txn.abort();
    assert_eq!(journals(), 0, "abort must remove the journal");
    assert!(!store.manifest_exists("rec"));

    let mut txn = store.begin_dedup(&refs, 300).expect("begin again");
    for idx in txn.missing().to_vec() {
        txn.supply_chunk(chunks[idx as usize]).expect("supply");
    }
    assert_eq!(txn.commit("rec").expect("commit"), 300);
    assert_eq!(journals(), 0, "the journal became the manifest");
    assert_eq!(read_record(&store, "rec").unwrap().unwrap(), record);
    let _ = std::fs::remove_dir_all(&dir);
}
