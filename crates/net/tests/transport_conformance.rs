//! One conformance suite for every [`CkptTransport`]: the contract a
//! medium signs by implementing `begin` and `with_merged`, checked through
//! the trait object and nothing else.
//!
//! Subjects: the flat and the content-addressed [`CheckpointStore`],
//! [`MemTransport`] (whole records only: a delta put is refused and changes
//! nothing), a [`NetTransport`] client whose service forwards into
//! a flat store over a loopback fabric, one whose service forwards into a
//! content-addressed store (the digest-negotiated put), and a
//! [`MirrorTransport`] over a client of the first kind. Each runs
//! [`conformance`] from empty; [`carries_over`] then moves records between
//! every pair of media and compares bytes. A medium only moves records: the
//! suite commits the group on the store behind each subject (for a wire
//! client or the mirror, the root's), which is where a run commits, and a
//! chain's lifecycle is what that store does when a master base commits. A
//! shard grows no chain: every medium refuses a shard delta key.

use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ppar_ckpt::store::{DeltaSource, FieldSource, Record, Snapshot, SnapshotMeta};
use ppar_ckpt::transport::{CkptTransport, RecordKey};
use ppar_ckpt::{CasConfig, CheckpointStore, ChunkDigest, ChunkRef, DeltaMeta, MemTransport};
use ppar_core::error::Result;
use ppar_core::shared::{SharedVec, DIRTY_CHUNK_BYTES};
use ppar_core::state::StateCell;
use ppar_net::{free_loopback_addr, Fabric, MirrorTransport, NetConfig, NetTransport, TcpFabric};

/// The transport calls the suite makes, in one place.
mod api {
    use super::*;

    pub fn put_full(
        t: &dyn CkptTransport,
        meta: &SnapshotMeta,
        fields: &[(&str, FieldSource<'_>)],
    ) -> Result<u64> {
        t.put(&Record::Full(meta, fields))
    }

    pub fn put_delta(
        t: &dyn CkptTransport,
        meta: &DeltaMeta,
        fields: &[(&str, DeltaSource<'_>)],
    ) -> Result<u64> {
        t.put(&Record::Delta(meta, fields))
    }

    pub fn get(
        t: &dyn CkptTransport,
        rank: Option<u32>,
        at: Option<u64>,
    ) -> Result<Option<Snapshot>> {
        t.get(rank, at)
    }

    /// Feed already-encoded record bytes to the sink of `(rank, delta seq)`
    /// in small pieces, then commit or abort.
    pub fn install(
        t: &dyn CkptTransport,
        (rank, delta): (Option<u32>, Option<u32>),
        bytes: &[u8],
        commit: bool,
    ) -> Result<u64> {
        let mut sink = t.begin(RecordKey { rank, delta }, bytes.len() as u64)?;
        for piece in bytes.chunks(97) {
            sink.write_all(piece)?;
        }
        if commit {
            sink.commit().map(|superseded| superseded.bytes())
        } else {
            sink.abort("conformance suite abort");
            Ok(0)
        }
    }

    /// [`install`] the way the checkpoint service lands an `OP_PUT_DEDUP`:
    /// announce the record's chunk digests, then write only the chunks the
    /// medium says it lacks (the whole record to a medium that keeps none).
    pub fn install_negotiated(
        t: &dyn CkptTransport,
        (rank, delta): (Option<u32>, Option<u32>),
        bytes: &[u8],
    ) -> Result<u64> {
        let mut sink = t.begin(RecordKey { rank, delta }, bytes.len() as u64)?;
        let chunks: Vec<&[u8]> = bytes.chunks(DIRTY_CHUNK_BYTES).collect();
        let refs: Vec<ChunkRef> = chunks
            .iter()
            .map(|chunk| ChunkRef {
                digest: ChunkDigest::of(chunk),
                len: chunk.len() as u32,
            })
            .collect();
        match sink.lacking(&refs, bytes.len() as u64)? {
            Some(lacking) => {
                for i in lacking {
                    sink.write_all(chunks[i as usize])?;
                }
            }
            None => sink.write_all(bytes)?,
        }
        sink.commit().map(|superseded| superseded.bytes())
    }
}

/// One medium under test.
struct Subject<'a> {
    t: &'a dyn CkptTransport,
    /// The store behind the medium, which keeps the group-commit point
    /// (`None` for memory, which keeps no generations).
    store: Option<&'a CheckpointStore>,
    /// Keeps the previous generation of a shard, so a count-pinned get can
    /// step back over a torn save.
    keeps_generations: bool,
    /// Holds delta chains; a medium that does not refuses every delta key.
    holds_chains: bool,
    /// A get may run while a put to the same transport is encoding (false
    /// for the serial request/response wire clients).
    reentrant: bool,
    /// Names of partial artefacts (temp files, journals) the medium holds.
    artefacts: &'a dyn Fn() -> Vec<String>,
}

fn meta(count: u64, rank: Option<u32>) -> SnapshotMeta {
    SnapshotMeta {
        mode_tag: "conf".into(),
        count,
        rank,
        nranks: 4,
    }
}

fn delta_meta(count: u64, base_count: u64, seq: u32, rank: Option<u32>) -> DeltaMeta {
    DeltaMeta {
        mode_tag: "conf".into(),
        count,
        base_count,
        seq,
        rank,
        nranks: 4,
    }
}

fn snapshot(count: u64, rank: Option<u32>, g: &[u8]) -> Snapshot {
    Snapshot {
        mode_tag: "conf".into(),
        count,
        rank,
        nranks: 4,
        fields: vec![
            ("G".into(), g.to_vec()),
            ("energy".into(), 42.0f64.to_le_bytes().to_vec()),
        ],
    }
}

fn put_snapshot(t: &dyn CkptTransport, snap: &Snapshot) -> u64 {
    let fields: Vec<(&str, FieldSource<'_>)> = snap
        .fields
        .iter()
        .map(|(n, b)| (n.as_str(), FieldSource::Bytes(b)))
        .collect();
    api::put_full(t, &snap.meta(), &fields).expect("full put")
}

fn merged_bytes(t: &dyn CkptTransport, rank: Option<u32>) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    t.write_merged_record(rank, &mut out)
        .expect("write_merged_record")
        .map(|n| {
            assert_eq!(n as usize, out.len());
            out
        })
}

/// A cell that announces more bytes than it streams, so the encoder fails
/// mid-record; `probe` runs in the middle of that put.
struct ShortCell<'a> {
    probe: &'a (dyn Fn() + Sync),
}

impl StateCell for ShortCell<'_> {
    fn save_bytes(&self) -> Vec<u8> {
        vec![7; 10]
    }
    fn load_bytes(&self, _: &[u8]) -> Result<()> {
        Ok(())
    }
    fn byte_len(&self) -> usize {
        20_000
    }
    fn write_state(&self, w: &mut dyn Write) -> Result<u64> {
        w.write_all(&[7; 10_000])?;
        (self.probe)();
        Ok(10_000)
    }
}

fn conformance(name: &str, s: &Subject<'_>) {
    write_and_key_side(name, s);
    read_side(name, s);
}

fn write_and_key_side(name: &str, s: &Subject<'_>) {
    let t = s.t;
    let g: Vec<u8> = (0..9000u32).map(|i| (i * 7) as u8).collect();

    // -- empty ------------------------------------------------------------
    assert!(api::get(t, None, None).unwrap().is_none(), "{name}");
    assert!(api::get(t, Some(2), None).unwrap().is_none(), "{name}");
    assert!(api::get(t, Some(2), Some(5)).unwrap().is_none(), "{name}");
    assert!(merged_bytes(t, None).is_none(), "{name}");

    // -- every key shape round-trips ----------------------------------------
    let master = snapshot(10, None, &g);
    let shard = snapshot(10, Some(2), &g[..4000]);
    assert_eq!(
        put_snapshot(t, &master),
        master.encode().len() as u64,
        "{name}"
    );
    put_snapshot(t, &shard);
    assert_eq!(api::get(t, None, None).unwrap().unwrap(), master, "{name}");
    assert_eq!(
        api::get(t, Some(2), None).unwrap().unwrap(),
        shard,
        "{name}"
    );
    assert!(api::get(t, Some(3), None).unwrap().is_none(), "{name}");
    assert_eq!(
        merged_bytes(t, None).unwrap(),
        master.encode(),
        "{name}: the streamed record is the golden checksummed encoding"
    );
    assert_eq!(merged_bytes(t, Some(2)).unwrap(), shard.encode(), "{name}");

    // -- a shard grows no chain: every medium refuses its delta key ----------
    let refused = api::put_delta(
        t,
        &delta_meta(12, 10, 1, Some(2)),
        &[("G", DeltaSource::Full(FieldSource::Bytes(&g[..8])))],
    );
    assert!(refused.is_err(), "{name}: a shard delta key is refused");
    assert!(
        api::install(t, (Some(2), Some(1)), &shard.encode(), true).is_err(),
        "{name}: a raw install under a shard delta key"
    );
    assert_eq!(
        api::get(t, Some(2), None).unwrap().unwrap(),
        shard,
        "{name}"
    );
    assert!(
        api::get(t, Some(2), Some(12)).is_err(),
        "{name}: no chain to pin"
    );
    assert_eq!((s.artefacts)(), Vec::<String>::new(), "{name}");

    if s.holds_chains {
        chains(name, s, &g, &master);
    } else {
        // A delta put is refused before a byte lands, and changes nothing.
        let refused = api::put_delta(
            t,
            &delta_meta(12, 10, 1, None),
            &[("G", DeltaSource::Full(FieldSource::Bytes(&g[..8])))],
        );
        assert!(refused.is_err(), "{name}: a delta key is refused");
        assert_eq!(api::get(t, None, None).unwrap().unwrap(), master, "{name}");
        assert!(
            api::get(t, None, Some(12)).is_err(),
            "{name}: no chain to pin"
        );
        assert!(api::install(t, (None, Some(1)), &master.encode(), true).is_err());
        assert_eq!(merged_bytes(t, None).unwrap(), master.encode(), "{name}");
    }

    // -- a count-pinned get serves that safe point or fails -----------------
    let old = snapshot(30, Some(1), &g[..2000]);
    let new = snapshot(40, Some(1), &g[2000..4000]);
    put_snapshot(t, &old);
    commit(s, 30);
    put_snapshot(t, &new); // torn: the group never committed 40
    assert_eq!(
        api::get(t, Some(1), Some(40)).unwrap().unwrap(),
        new,
        "{name}"
    );
    match api::get(t, Some(1), Some(30)) {
        Ok(Some(snap)) => assert_eq!(snap, old, "{name}: the pinned generation"),
        Ok(None) => panic!("{name}: a held shard cannot read as absent"),
        Err(_) => assert!(
            !s.keeps_generations,
            "{name}: the previous generation must still be served"
        ),
    }
    assert!(
        api::get(t, Some(1), Some(35)).is_err(),
        "{name}: no generation sits at 35"
    );
    assert_eq!(api::get(t, Some(1), None).unwrap().unwrap(), new, "{name}");

    // -- a failing put keeps the previous record, leaves nothing behind -----
    let before = api::get(t, None, None).unwrap().unwrap();
    let reentrant = s.reentrant;
    let probe = || {
        if reentrant {
            assert_eq!(
                api::get(t, None, None).unwrap().as_ref(),
                Some(&before),
                "{name}: a reader in the middle of a put sees the previous record"
            );
        }
    };
    let short = ShortCell { probe: &probe };
    for rank in [None, Some(1)] {
        let err = api::put_full(t, &meta(50, rank), &[("G", FieldSource::Cell(&short))]);
        assert!(
            err.is_err(),
            "{name}: a cell streaming short must fail the put"
        );
    }
    assert!(api::put_delta(
        t,
        &delta_meta(51, 20, 1, None),
        &[("G", DeltaSource::Full(FieldSource::Cell(&short)))],
    )
    .is_err());
    assert_eq!(api::get(t, None, None).unwrap().unwrap(), before, "{name}");
    assert_eq!(api::get(t, Some(1), None).unwrap().unwrap(), new, "{name}");
    assert_eq!((s.artefacts)(), Vec::<String>::new(), "{name}");

    // -- so does an aborted raw install -------------------------------------
    api::install(t, (None, None), b"partial garbage", false).unwrap();
    if s.holds_chains {
        api::install(t, (None, Some(1)), b"partial garbage", false).unwrap();
    }
    assert_eq!(api::get(t, None, None).unwrap().unwrap(), before, "{name}");
    assert_eq!((s.artefacts)(), Vec::<String>::new(), "{name}");

    // -- a raw install lands where a put would -------------------------------
    let raw = snapshot(60, Some(3), &g[..500]);
    assert_eq!(
        api::install(t, (Some(3), None), &raw.encode(), true).unwrap(),
        raw.encode().len() as u64,
        "{name}"
    );
    assert_eq!(api::get(t, Some(3), None).unwrap().unwrap(), raw, "{name}");

    // -- a record routed to the wrong key is rejected ------------------------
    assert!(
        api::install(t, (Some(9), None), &raw.encode(), true).is_err(),
        "{name}: shard 3's record under shard 9's key"
    );
    assert!(api::get(t, Some(9), None).unwrap().is_none(), "{name}");
    assert!(
        api::install(t, (None, None), &raw.encode(), true).is_err(),
        "{name}: a shard record under the master key"
    );
    assert!(
        api::install(t, (None, Some(1)), &raw.encode(), true).is_err(),
        "{name}: a full shard record under a master delta key"
    );
    assert_eq!(api::get(t, None, None).unwrap().unwrap(), before, "{name}");
    assert_eq!(api::get(t, Some(3), None).unwrap().unwrap(), raw, "{name}");
    assert_eq!((s.artefacts)(), Vec::<String>::new(), "{name}");

    // -- so is a digest-negotiated one: its chunks supplied, or all held ------
    let negotiated = snapshot(61, Some(3), &g).encode();
    for round in ["its chunks supplied", "every chunk already held"] {
        assert!(
            api::install_negotiated(t, (Some(9), None), &negotiated).is_err(),
            "{name}: shard 3's record announced under shard 9's key, {round}"
        );
        assert!(
            api::install_negotiated(t, (None, None), &negotiated).is_err(),
            "{name}: announced under the master key, {round}"
        );
        assert!(api::get(t, Some(9), None).unwrap().is_none(), "{name}");
        assert_eq!(api::get(t, None, None).unwrap().unwrap(), before, "{name}");
        assert_eq!((s.artefacts)(), Vec::<String>::new(), "{name}");
        // Under its own key it lands, like a put.
        assert_eq!(
            api::install_negotiated(t, (Some(3), None), &negotiated).unwrap(),
            negotiated.len() as u64,
            "{name}"
        );
        assert_eq!(merged_bytes(t, Some(3)).unwrap(), negotiated, "{name}");
    }
}

/// Advance the group-commit point of the store behind `s` to `count`.
fn commit(s: &Subject<'_>, count: u64) {
    if let Some(store) = s.store {
        store.commit_group(count).unwrap();
    }
}

/// The chain part of the write side, for a medium that holds chains: a
/// delta over the master folds into its base; a master base put retires
/// the chain, a refused one or a shard's retires nothing; base + 3 deltas
/// read as a full put of the same state.
#[allow(clippy::single_range_in_vec_init)] // dirty ranges are span data
fn chains(name: &str, s: &Subject<'_>, g: &[u8], master: &Snapshot) {
    let t = s.t;
    let patch = [0xEEu8; 8];
    let mut patched = g.to_vec();
    patched[16..24].copy_from_slice(&patch);
    let patched = SharedVec::from_vec(patched);
    api::put_delta(
        t,
        &delta_meta(12, 10, 1, None),
        &[(
            "G",
            DeltaSource::DirtyCell {
                cell: &patched,
                ranges: &[16..24],
            },
        )],
    )
    .unwrap();
    let merged = api::get(t, None, None).unwrap().unwrap();
    assert_eq!(merged.count, 12, "{name}");
    assert_eq!(&merged.field("G").unwrap()[16..24], &patch, "{name}");
    assert_eq!(&merged.field("G").unwrap()[24..], &g[24..], "{name}");

    // -- a refused base put retires nothing ---------------------------------
    let shard = snapshot(14, Some(2), &g[100..4100]);
    assert!(
        api::install(t, (None, None), &shard.encode(), true).is_err(),
        "{name}: shard 2's record under the master's key"
    );
    let short = ShortCell { probe: &|| {} };
    let cut = api::put_full(t, &meta(14, None), &[("G", FieldSource::Cell(&short))]);
    assert!(cut.is_err(), "{name}: a base that streams short");
    assert_eq!(
        api::get(t, None, None).unwrap().unwrap().count,
        12,
        "{name}: the chain outlives a refused base"
    );
    assert_eq!((s.artefacts)(), Vec::<String>::new(), "{name}");

    // -- neither does a shard's base; the master's retires the chain ---------
    put_snapshot(t, &shard);
    assert_eq!(
        api::get(t, None, None).unwrap().unwrap().count,
        12,
        "{name}: the master chain keeps its delta"
    );
    put_snapshot(t, master);
    assert_eq!(
        api::get(t, None, None).unwrap().unwrap(),
        *master,
        "{name}: no delta of the old chain survives"
    );
    assert!(
        api::get(t, None, Some(12)).is_err(),
        "{name}: a pin at the old tip is refused"
    );

    // -- base + 3 deltas == a full put of the same state --------------------
    let cell = SharedVec::from_vec((0..6000).map(|i| i as f64 * 0.5).collect());
    api::put_full(t, &meta(20, None), &[("G", FieldSource::Cell(&cell))]).unwrap();
    cell.clear_dirty();
    for seq in 1..=3u32 {
        cell.set(seq as usize * 1500, -(seq as f64));
        cell.set(7, seq as f64);
        let ranges = cell.dirty_byte_ranges();
        api::put_delta(
            t,
            &delta_meta(20 + seq as u64, 20, seq, None),
            &[(
                "G",
                DeltaSource::DirtyCell {
                    cell: &cell,
                    ranges: &ranges,
                },
            )],
        )
        .unwrap();
        cell.clear_dirty();
    }
    let full = Snapshot {
        fields: vec![("G".into(), cell.save_bytes())],
        ..snapshot(23, None, &[])
    };
    assert_eq!(api::get(t, None, None).unwrap().unwrap(), full, "{name}");
    assert_eq!(merged_bytes(t, None).unwrap(), full.encode(), "{name}");
}

/// The three read shapes of one `(rank, at)` — the lend, the owned `get`,
/// the streamed record — must describe one state, byte for byte, or refuse
/// together; `read` runs exactly when the lend reports a record.
fn read_shapes(
    name: &str,
    t: &dyn CkptTransport,
    rank: Option<u32>,
    at: Option<u64>,
) -> Result<Option<Snapshot>> {
    let mut calls = 0;
    let mut lent = None;
    let found = t.with_merged(rank, at, &mut |view| {
        calls += 1;
        lent = Some(view.to_snapshot());
        Ok(())
    });
    let owned = t.get(rank, at);
    let mut out = Vec::new();
    let streamed = t.write_merged_record_at(rank, at, &mut out);
    let found = found.inspect_err(|_| {
        assert_eq!(
            calls, 0,
            "{name}: `read` ran on a pin that cannot be served"
        );
        assert!(
            owned.is_err() && streamed.is_err(),
            "{name}: {rank:?} {at:?}"
        );
    })?;
    assert_eq!(calls, found as usize, "{name}: {rank:?} at {at:?}");
    let owned = owned.unwrap();
    assert_eq!(lent, owned, "{name}: lend and get, {rank:?} at {at:?}");
    let streamed = streamed.unwrap();
    assert_eq!(streamed.is_some(), found, "{name}: {rank:?} at {at:?}");
    if let Some(snap) = &owned {
        assert_eq!(streamed, Some(out.len() as u64), "{name}");
        assert!(
            out == snap.encode(),
            "{name}: the stream is the golden encoding, {rank:?} at {at:?}"
        );
    }
    Ok(owned)
}

/// One field of one step of [`read_side`]'s chain.
enum Patch<'a> {
    Whole(&'a [u8]),
    /// Ranges of the field and their new bytes, concatenated.
    Sparse(Vec<Range<usize>>, Vec<u8>),
}

/// The read side, one chain shape after another on the master's chain:
/// after every step all three shapes equal a full snapshot of the same
/// state, at the tip and at every safe point the chain passed through.
/// Then shard 7's generations: a torn newer one, over which no delta is
/// taken, and the one kept at the commit point.
#[allow(clippy::single_range_in_vec_init)] // dirty ranges are span data
fn read_side(name: &str, s: &Subject<'_>) {
    const SHARD: Option<u32> = Some(7);
    let t = s.t;
    let shapes = |rank: Option<u32>, at: Option<u64>| read_shapes(name, t, rank, at);
    let g: Vec<u8> = (0..9000u32).map(|i| (i * 13) as u8).collect();
    let state = |rank: Option<u32>, count: u64, g: &[u8], cursor: &[u8]| Snapshot {
        fields: vec![
            ("G".into(), g.to_vec()),
            ("cursor".into(), cursor.to_vec()),
            ("energy".into(), 1.5f64.to_le_bytes().to_vec()),
        ],
        ..snapshot(count, rank, &[])
    };

    // -- nothing held: `read` does not run, pinned or not ---------------------
    assert_eq!(shapes(SHARD, None).unwrap(), None, "{name}");
    assert_eq!(shapes(SHARD, Some(100)).unwrap(), None, "{name}");

    // -- no chain ---------------------------------------------------------------
    let mut model = state(None, 100, &g, b"cursor@100");
    put_snapshot(t, &model);
    let mut passed = vec![model.clone()];

    // -- sparse, dense, and a field whose length changes (the cursor) ---------
    let dense: Vec<u8> = g.iter().map(|b| b ^ 0x5a).collect();
    let steps: Vec<Vec<(&str, Patch<'_>)>> = vec![
        // Two sparse patches; the cursor keeps its length, so it lands in
        // the record like any same-length whole field.
        vec![
            ("G", Patch::Sparse(vec![16..24, 8000..8004], vec![0xEE; 12])),
            ("cursor", Patch::Whole(b"cursor@110")),
        ],
        // Dense: every byte of G dirty.
        vec![("G", Patch::Sparse(vec![0..9000], dense.clone()))],
        // The cursor grows...
        vec![("cursor", Patch::Whole(b"a much longer cursor @130"))],
        // ...shrinks below where it started, and G is patched again.
        vec![
            ("cursor", Patch::Whole(b"@140")),
            ("G", Patch::Sparse(vec![20..22], vec![1, 2])),
        ],
    ];
    // A medium that holds no chain serves its one record, and only at its
    // own safe point.
    let steps = if s.holds_chains { steps } else { Vec::new() };
    for (seq, fields) in (1u32..).zip(&steps) {
        let count = 100 + 10 * seq as u64;
        model.count = count;
        // A sparse field's ranges stream from a cell holding the field as
        // the step leaves it.
        let mut cells = Vec::new();
        for (field, patch) in fields {
            let slot = &mut model.fields.iter_mut().find(|(n, _)| n == field).unwrap().1;
            match patch {
                Patch::Whole(whole) => *slot = whole.to_vec(),
                Patch::Sparse(ranges, bytes) => {
                    let mut rest = &bytes[..];
                    for r in ranges {
                        let (bytes, tail) = rest.split_at(r.len());
                        slot[r.clone()].copy_from_slice(bytes);
                        rest = tail;
                    }
                }
            }
            cells.push(SharedVec::from_vec(slot.clone()));
        }
        let sources: Vec<_> = fields
            .iter()
            .zip(&cells)
            .map(|((field, patch), cell)| {
                let source = match patch {
                    Patch::Whole(whole) => DeltaSource::Full(FieldSource::Bytes(whole)),
                    Patch::Sparse(ranges, _) => DeltaSource::DirtyCell { cell, ranges },
                };
                (*field, source)
            })
            .collect();
        api::put_delta(t, &delta_meta(count, 100, seq, None), &sources).unwrap();
        passed.push(model.clone());
        assert_eq!(shapes(None, None).unwrap().as_ref(), Some(&model), "{name}");
        // -- a pin serves the prefix that lands on it ---------------------------
        for at in &passed {
            let got = shapes(None, Some(at.count)).unwrap();
            assert_eq!(got.as_ref(), Some(at), "{name}: pinned at {}", at.count);
        }
    }
    assert!(
        shapes(None, Some(115)).is_err(),
        "{name}: between two deltas"
    );
    assert!(shapes(None, Some(50)).is_err(), "{name}: before the base");

    // -- a torn newer shard generation ------------------------------------------
    // The group commits shard 7 at 100; a newer generation is saved but
    // never committed, and no delta extends it.
    let committed = state(SHARD, 100, &g, b"cursor@100");
    put_snapshot(t, &committed);
    commit(s, 100);
    let torn = state(SHARD, 150, &dense, b"cursor@150");
    put_snapshot(t, &torn);
    let cursor = DeltaSource::Full(FieldSource::Bytes(b"@155"));
    let refused = api::put_delta(t, &delta_meta(155, 150, 1, SHARD), &[("cursor", cursor)]);
    assert!(refused.is_err(), "{name}: a shard grows no chain");
    assert_eq!(shapes(SHARD, None).unwrap(), Some(torn.clone()), "{name}");
    assert_eq!(shapes(SHARD, Some(150)).unwrap(), Some(torn), "{name}");
    assert!(shapes(SHARD, Some(152)).is_err(), "{name}");
    match shapes(SHARD, Some(100)) {
        Ok(got) => assert_eq!(got, Some(committed), "{name}"),
        Err(_) => assert!(!s.keeps_generations, "{name}: the committed generation"),
    }
}

/// Records put through `src` arrive in `dst` byte for byte: the merged
/// record `src` streams out is installed raw under the same key and must
/// stream back out of `dst` unchanged. `salt` makes the records of this
/// pair differ from everything either side held before.
fn carries_over(name: &str, salt: u8, src: &dyn CkptTransport, dst: &dyn CkptTransport) {
    let g: Vec<u8> = (0..3000u32).map(|i| (i as u8) ^ salt).collect();
    for rank in [None, Some(1), Some(3)] {
        put_snapshot(src, &snapshot(100 + salt as u64, rank, &g));
        let record = merged_bytes(src, rank).unwrap();
        api::install(dst, (rank, None), &record, true).unwrap();
        assert_eq!(merged_bytes(dst, rank).unwrap(), record, "{name}: {rank:?}");
        assert_eq!(
            api::get(dst, rank, None).unwrap(),
            Some(snapshot(100 + salt as u64, rank, &g)),
            "{name}: {rank:?}"
        );
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("conformance_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Temp files in a checkpoint directory and staged journals of its CAS.
fn dir_artefacts(dir: &Path) -> Vec<String> {
    let names = |d: PathBuf| -> Vec<String> {
        std::fs::read_dir(d)
            .map(|it| {
                it.map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut found: Vec<String> = names(dir.to_path_buf())
        .into_iter()
        .filter(|n| n.contains(".tmp"))
        .collect();
    found.extend(names(dir.join("journal")));
    found
}

const DONE_TAG: u64 = (1 << 63) | 0xc0f;

/// Run `body` as rank 1 with a client whose service (rank 0) forwards into
/// `store`.
fn with_net_client(store: CheckpointStore, body: impl FnOnce(Arc<NetTransport>) + Send) {
    let addr = free_loopback_addr().unwrap();
    let connect = |rank: usize| -> Arc<dyn Fabric> {
        let mut cfg = NetConfig::new(rank, 2, addr.clone());
        cfg.recv_timeout = Duration::from_secs(30);
        TcpFabric::connect(&cfg).unwrap()
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let fabric = connect(0);
            let service = NetTransport::serve(fabric.clone(), 0, Arc::new(store));
            fabric.recv(0, 1, DONE_TAG).unwrap();
            service.stop();
        });
        scope.spawn(|| {
            let fabric = connect(1);
            body(Arc::new(NetTransport::client(fabric.clone(), 1)));
            fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
        });
    });
}

#[test]
fn every_transport_keeps_the_contract_and_records_cross_media() {
    let flat_dir = scratch_dir("flat");
    let cas_dir = scratch_dir("cas");
    let net_dir = scratch_dir("net");
    let net_cas_dir = scratch_dir("net_cas");
    let mirror_dir = scratch_dir("mirror");
    let flat = CheckpointStore::new_flat(&flat_dir).unwrap();
    let cas = CheckpointStore::new_cas_with(&cas_dir, CasConfig::default()).unwrap();
    let mem = MemTransport::new();

    conformance(
        "flat",
        &Subject {
            t: &flat,
            store: Some(&flat),
            keeps_generations: true,
            holds_chains: true,
            reentrant: true,
            artefacts: &|| dir_artefacts(&flat_dir),
        },
    );
    conformance(
        "cas",
        &Subject {
            t: &cas,
            store: Some(&cas),
            keeps_generations: true,
            holds_chains: true,
            reentrant: true,
            artefacts: &|| dir_artefacts(&cas_dir),
        },
    );
    conformance(
        "memory",
        &Subject {
            t: &mem,
            store: None,
            keeps_generations: false,
            holds_chains: false,
            reentrant: true,
            artefacts: &Vec::new,
        },
    );
    let mirror_root = CheckpointStore::new_flat(&mirror_dir).unwrap();
    with_net_client(mirror_root.clone(), |net| {
        let mirror = MirrorTransport::new(net);
        conformance(
            "mirror",
            &Subject {
                t: &mirror,
                store: Some(&mirror_root),
                keeps_generations: true,
                holds_chains: true,
                reentrant: false,
                artefacts: &|| dir_artefacts(&mirror_dir),
            },
        );
        // A slot holds the very record the root stored, CRC trailer
        // included: every record carries its CRC, in memory too.
        let shard = snapshot(70, Some(5), &[5; 300]);
        put_snapshot(&mirror, &shard);
        let key = RecordKey::full(Some(5));
        let held = mirror
            .slots()
            .iter()
            .find_map(|slot| slot.record_bytes(key));
        let stored = std::fs::read(mirror_dir.join("ckpt_rank_5.bin")).unwrap();
        assert_eq!(held.as_ref(), Some(&stored), "mirror: the slot's record");
        assert_eq!(stored, shard.encode(), "mirror: the golden encoding");
    });
    // A root on the content-addressed layout: full records reach it as
    // `OP_PUT_DEDUP`, the digest-negotiated commit.
    let net_cas = CheckpointStore::new_cas_with(&net_cas_dir, CasConfig::default()).unwrap();
    with_net_client(net_cas.clone(), |net| {
        conformance(
            "net over cas",
            &Subject {
                t: &*net,
                store: Some(&net_cas),
                keeps_generations: true,
                holds_chains: true,
                reentrant: false,
                artefacts: &|| dir_artefacts(&net_cas_dir),
            },
        );
    });
    let net_root = CheckpointStore::new_flat(&net_dir).unwrap();
    with_net_client(net_root.clone(), |net| {
        conformance(
            "net",
            &Subject {
                t: &*net,
                store: Some(&net_root),
                keeps_generations: true,
                holds_chains: true,
                reentrant: false,
                artefacts: &|| dir_artefacts(&net_dir),
            },
        );
        let media: [(&str, &dyn CkptTransport); 4] = [
            ("flat", &flat),
            ("cas", &cas),
            ("memory", &mem),
            ("net", &*net),
        ];
        let mut salt = 0;
        for (from, src) in media {
            for (to, dst) in media {
                if from != to {
                    salt += 1;
                    carries_over(&format!("{from} -> {to}"), salt, src, dst);
                }
            }
        }
    });

    for d in [&flat_dir, &cas_dir, &net_dir, &net_cas_dir, &mirror_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
