//! Persistent checkpoint storage: snapshot files and the failure marker.
//!
//! Layout of a checkpoint directory:
//!
//! ```text
//! <dir>/
//!   RUNNING                     # exists while a run is in flight (the pcr
//!                               # module's failure detector: marker +
//!                               # snapshot => replay)
//!   ckpt_master.bin             # master-collected snapshot (restartable in
//!                               # ANY mode); the *base* in incremental mode
//!   ckpt_master_delta_<s>.bin   # delta chain over the base (incremental
//!                               # mode, s = 1, 2, ...; see crate::delta)
//!   ckpt_rank_<r>.bin           # per-element shards (local-snapshot
//!                               # strategy): full records only
//!   ckpt_rank_<r>_prev.bin      # the shard generation kept at the commit
//!   ckpt_*.bin.spare            # a superseded file kept for the next save
//!                               # of that name to rewrite (never read)
//!   ckpt_commit                 # group-commit point (u64)
//! ```
//!
//! Snapshot files are written atomically (temp file + rename) and carry a
//! trailing CRC-32 over the entire content, so a crash *during* checkpointing
//! can never produce a snapshot that is both present and corrupt: either the
//! old snapshot survives or the new one is complete.
//!
//! The store keeps its chain itself; no medium above it has a say. A
//! master base's commit retires the chain's deltas right after the rename
//! (a crash in between leaves deltas naming the old base, which the fold
//! ignores), `CheckpointModule::create_group` purges every chain before a
//! fresh run, and `ckpt_commit` holds the group-commit point
//! ([`CheckpointStore::commit_group`]) that a shard's retained `_prev`
//! generation serves. A shard grows no chain: its sink refuses a delta
//! key, so every shard generation is one whole record. The read side
//! keeps its one fold for every key, so a `ckpt_rank_<r>_delta_<s>.bin`
//! chain an older release left still restores; a pinned restore lands on
//! a base at the commit point and walks no delta past it.
//!
//! **A record's file outlives its generation.** A flat commit supersedes
//! files: the record its rename replaces and the deltas a master base
//! retires. Each of those steps first gives the file a second name, the
//! *spare* of the record name that will next need it (`<name>.spare`: the
//! record renamed over keeps its own name's, a retired delta keeps its
//! own). The next flat sink of that name claims the spare as its temp file
//! and rewrites it in place, so a steady save writes into warm page cache
//! instead of a fresh file. A shard's sink whose commit will rotate its
//! record aside claims the `_prev` that rotation evicts instead: once the
//! group has committed the shard's record, the generation before it
//! serves no restore, and it is the older of the module's last two
//! records, which a steady save patches. A spare is never a record name,
//! so no reader sees one; names, their commit order and every CRC are
//! those of a store without spares. A step frees the file inline, as it
//! always did, when it cannot take the spare name (taken, or the link
//! fails) and in the content-addressed layout. The commit returns the spare names as a
//! [`Superseded`]: a direct [`CkptTransport::put`] drops it, which unlinks
//! them; the checkpoint module (see [`crate::hook`]) and the checkpoint
//! service's lanes keep them. Its footprint is one extra record per base
//! name and at most one chain of delta spares, on disk and in page cache.
//!
//! File format (all integers little-endian):
//!
//! ```text
//! magic    8B  "PPARCKP1"
//! mode     len-prefixed UTF-8 tag (e.g. "seq", "smp8", "dist32")
//! count    u64   safe points executed when the snapshot was taken
//! rank     u32   owning element, 0xFFFF_FFFF for a master snapshot
//! nranks   u32   aggregate size at snapshot time
//! nfields  u32
//! fields   nfields × { name: len-prefixed UTF-8, payload: len-prefixed bytes }
//! crc      u32   CRC-32 of every preceding byte
//! ```
//!
//! Length prefixes are `u64` for strings and payloads.
//!
//! ## Streaming write path
//!
//! Snapshots are persisted by [`SnapshotWriter`]: header, fields and
//! trailing CRC are streamed through a [`std::io::BufWriter`] with a
//! *running* CRC-32 — at no point does a whole-snapshot buffer exist. A
//! payload with 4 MiB or more to checksum goes to the block engine
//! ([`crate::crc`]): 256 KiB blocks claimed from one counter by a helper
//! thread on a second core while the writing thread writes, and by the
//! writing thread once its write returns, their CRCs joined in record
//! order. Field payloads come from a [`FieldSource`]:
//!
//! * [`FieldSource::Cell`] streams a live [`StateCell`] through
//!   [`StateCell::write_state`]; containers with contiguous little-endian
//!   layouts (e.g. `SharedVec<f64>`) hand their backing bytes straight to
//!   the sink without per-element serialization;
//! * [`FieldSource::Bytes`] wraps bytes that lie in memory (a shard's
//!   owned block of a cell, gathered aggregates).
//!
//! **The length rule.** A cell becomes record bytes one way: the writer
//! announces [`StateCell::byte_len`] as the field's length prefix, streams
//! [`StateCell::write_state`], and refuses the record if the streamed
//! count differs from the announced one. Nothing is buffered to learn a
//! length.
//!
//! The streamed output is byte-identical to the legacy materialized encoder
//! ([`Snapshot::encode`], kept as the golden reference), so snapshots
//! written by either path load through the same reader and old snapshot
//! files stay valid.
//!
//! **A full record can be patched into a file that holds an older one**
//! (`Record::patch`): the caller names, per field, the payload ranges the
//! file may lack, and the writer writes those and moves past the rest
//! ([`RecordSink::skip`]) — header, names, lengths and the trailer are
//! always written. The CRC still runs over every in-memory byte, so the
//! trailer vouches for the state, never for the file: a byte the file did
//! not hold as the caller assumed fails the record's CRC at restore. Only
//! the flat sink over a claimed spare holds a base ([`RecordSink::held`]);
//! the checkpoint module decides whether to trust it ([`crate::hook`]).
//!
//! **A patched record checksums only the blocks it does not know.** The
//! caller may also hand a field's block CRCs (one per 256 KiB block, the
//! last one partial) as of an earlier save, leaving out the blocks changed
//! since: the writer checksums only the blocks left out, at any payload
//! size, and returns every block's CRC for the next save. The trailer is
//! still exactly the one-pass CRC of the state, provided the blocks the
//! caller vouched for are unchanged; a debug build checks that on every such
//! save — it checksums each field whole and panics, naming the field, the
//! block and its byte offset, when a block no longer matches the CRC the
//! caller vouched for. A direct put ([`Record::encode`]) knows no block
//! CRCs.
//!
//! ## Read path
//!
//! [`SnapshotView`] is what parses: one parser, whose field payloads are
//! slices of the record's bytes, entered CRC-checked
//! ([`SnapshotView::decode`]) or trusted. [`Snapshot`] is the owned form, a
//! copy of a view. Restores read views (`CkptTransport::with_merged`).
//!
//! A stored record is read one way: [`CheckpointStore`]'s record reader
//! opens it — a flat file, or a content-addressed record's chunk objects
//! through a [`crate::cas::ChunkReader`] — and one `RecordStream` reads it
//! front to back, its CRC folded in block by block as the bytes land. The
//! chain rules below (`walk_chain`, `fold_merged`) are the one place a
//! stored chain becomes a state: the base into the fold's one buffer, each
//! delta's payloads straight into their places in it, every record
//! CRC-verified. A chain lives only here, on disk. A large span (a base's
//! body, a dense delta's payload) is read on every core by the same block
//! engine as a save's: each thread claims a block, reads it at its offset
//! and checksums it, and the block CRCs join in record order to exactly
//! the value one pass computes. Copying a stored record through to a sink
//! (`record_copy_to`, the service's answer to a restore) stays one
//! ordered, front-to-back pass.

use std::fs;
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use ppar_core::error::{PparError, Result};
use ppar_core::state::StateCell;
use ppar_core::sync::{AtomicU64, Mutex, Ordering};

use crate::cas::ChunkRef;
use crate::crc::{crc32, crc_blocks, helpers, join_block, Crc32, CRC_COPY_BLOCK};
use crate::delta::{DeltaMeta, Merged};
use crate::transport::{
    keep_head, stream_merged, CkptTransport, Held, RecordKey, RecordSink, Superseded, HEAD_BYTES,
};

const MAGIC: &[u8; 8] = b"PPARCKP1";
pub(crate) const MASTER_RANK: u32 = 0xFFFF_FFFF;

/// A record's body: everything before its 4-byte CRC trailer. With
/// `verify` the trailer is checked against the body; without, it is only
/// stripped — for bytes whose integrity is already established (they
/// never left this process, or a running CRC verified them as they
/// arrived off the wire). `what` prefixes the error text (`""`, `"delta "`).
pub(crate) fn record_body<'a>(bytes: &'a [u8], verify: bool, what: &str) -> Result<&'a [u8]> {
    if bytes.len() < MAGIC.len() + 4 {
        return Err(PparError::CorruptCheckpoint(format!(
            "{what}record too short"
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    if verify {
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        let computed = crc32(body);
        if computed != stored {
            return Err(PparError::CorruptCheckpoint(format!(
                "{what}CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
    }
    Ok(body)
}

/// The owned form of a full record: header plus named field payloads,
/// copied out of a [`SnapshotView`] (which is what parses).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Execution-mode tag at snapshot time (`ExecMode::tag()`); informative
    /// only — master snapshots restart in any mode.
    pub mode_tag: String,
    /// Safe points executed when the snapshot was taken.
    pub count: u64,
    /// Owning element for shard snapshots; `None` for master snapshots.
    pub rank: Option<u32>,
    /// Aggregate size at snapshot time (1 for non-distributed runs).
    pub nranks: u32,
    /// Field name → payload bytes, in `SafeData` declaration order.
    pub fields: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// Payload bytes of field `name`.
    pub fn field(&self, name: &str) -> Option<&[u8]> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Total payload size (the paper's "checkpoint data" volume).
    pub fn payload_bytes(&self) -> usize {
        self.fields.iter().map(|(_, b)| b.len()).sum()
    }

    /// Header-only view of this snapshot (for the streaming writer).
    pub fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: self.mode_tag.clone(),
            count: self.count,
            rank: self.rank,
            nranks: self.nranks,
        }
    }

    /// The legacy materialized encoder: builds the whole snapshot in one
    /// buffer, then checksums it. Kept as the golden byte-for-byte reference
    /// the streaming [`SnapshotWriter`] is tested against; the persistence
    /// paths all stream instead.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.payload_bytes());
        out.extend_from_slice(MAGIC);
        put_str(&mut out, &self.mode_tag);
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.rank.unwrap_or(MASTER_RANK).to_le_bytes());
        out.extend_from_slice(&self.nranks.to_le_bytes());
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for (name, payload) in &self.fields {
            put_str(&mut out, name);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and integrity-check one full snapshot record (the trailing
    /// CRC-32 is verified): the owned copy of [`SnapshotView::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
        SnapshotView::decode(bytes).map(|view| view.to_snapshot())
    }
}

/// Where the parser found each field of a full record: its name and the
/// span of its payload within the record's bytes.
pub(crate) type FieldSpans = Vec<(String, Range<usize>)>;

/// A full record as parsed: the header plus field payloads that are slices
/// of the record's own bytes. This is the form every restore reads — a
/// medium lends one through `CkptTransport::with_merged`, so state goes
/// record → cell in one copy; [`Snapshot`] is the owned copy of one.
pub struct SnapshotView<'a> {
    /// The record's header.
    pub meta: SnapshotMeta,
    /// Field name → borrowed payload bytes, in declaration order.
    pub fields: Vec<(String, &'a [u8])>,
}

impl<'a> SnapshotView<'a> {
    /// Payload bytes of field `name`.
    pub fn field(&self, name: &str) -> Option<&'a [u8]> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, b)| *b)
    }

    /// The owned copy of this view.
    pub fn to_snapshot(&self) -> Snapshot {
        let fields = self.fields.iter().map(|(n, b)| (n.clone(), b.to_vec()));
        Snapshot {
            mode_tag: self.meta.mode_tag.clone(),
            count: self.meta.count,
            rank: self.meta.rank,
            nranks: self.meta.nranks,
            fields: fields.collect(),
        }
    }

    /// Stream this view into `out` as one checksummed full record (the
    /// golden encoding of the state it describes). Returns bytes written.
    pub fn write_record(&self, out: &mut dyn Write) -> Result<u64> {
        let fields = self.fields.iter();
        let fields: Vec<_> = fields
            .map(|(n, b)| (n.as_str(), FieldSource::Bytes(b)))
            .collect();
        let (written, _) = Record::Full(&self.meta, &fields).encode(out)?;
        Ok(written)
    }

    /// Parse one full record and verify its trailing CRC-32: the entry for
    /// anything read from disk or another unverified source.
    pub fn decode(bytes: &'a [u8]) -> Result<SnapshotView<'a>> {
        SnapshotView::resolve(record_body(bytes, true, "")?)
    }

    /// Parse a record whose integrity has *already* been established:
    /// structural validation only, the trailing CRC is stripped but not
    /// re-verified. Two callers qualify — the in-memory transport (bytes
    /// never left this process; integrity checking guards the durable
    /// medium) and the streaming network restore path, which verifies the
    /// record's running CRC as the chunks arrive and must not pay a
    /// second full pass.
    pub fn decode_trusted(bytes: &'a [u8]) -> Result<SnapshotView<'a>> {
        SnapshotView::resolve(record_body(bytes, false, "")?)
    }

    fn resolve(body: &'a [u8]) -> Result<SnapshotView<'a>> {
        let (meta, spans) = SnapshotView::parse(&mut Reader { buf: body, pos: 0 })?;
        let fields = spans.into_iter().map(|(name, span)| (name, &body[span]));
        Ok(SnapshotView {
            meta,
            fields: fields.collect(),
        })
    }

    /// The parser's header step: magic through `nranks`. Also all a peek
    /// at a record's leading bytes needs (nothing past them is touched).
    pub(crate) fn header(r: &mut impl Input) -> Result<SnapshotMeta> {
        let magic: [u8; 8] = r.take_array()?;
        if &magic != MAGIC {
            return Err(PparError::FormatMismatch {
                expected: String::from_utf8_lossy(MAGIC).into_owned(),
                found: String::from_utf8_lossy(&magic).into_owned(),
            });
        }
        let mode_tag = r.take_str()?;
        let count = r.take_u64()?;
        let rank = r.take_u32()?;
        let nranks = r.take_u32()?;
        Ok(SnapshotMeta {
            mode_tag,
            count,
            rank: (rank != MASTER_RANK).then_some(rank),
            nranks,
        })
    }

    /// The one full-record parser: the header, then where each field's
    /// payload sits in the body (the record without its CRC trailer) —
    /// over bytes in memory, or passing the payloads by as they stream.
    pub(crate) fn parse(r: &mut impl Input) -> Result<(SnapshotMeta, FieldSpans)> {
        let meta = SnapshotView::header(r)?;
        // A field costs at least its two length prefixes.
        let nfields = r.take_count(16, "fields")?;
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let name = r.take_str()?;
            let len = r.take_len()?;
            let start = r.pos();
            r.skip(len)?;
            fields.push((name, start..r.pos()));
        }
        r.finish("CRC")?;
        Ok((meta, fields))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// streaming writer
// ---------------------------------------------------------------------------

/// Snapshot header for the streaming write path (everything in
/// [`Snapshot`] except the field payloads).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Execution-mode tag at snapshot time.
    pub mode_tag: String,
    /// Safe points executed when the snapshot was taken.
    pub count: u64,
    /// Owning element for shard snapshots; `None` for master snapshots.
    pub rank: Option<u32>,
    /// Aggregate size at snapshot time.
    pub nranks: u32,
}

impl SnapshotMeta {
    /// The header of the full record whose leading bytes are `head` (a
    /// prefix long enough to hold it; nothing past the header is touched).
    pub fn of_head(head: &[u8]) -> Result<SnapshotMeta> {
        SnapshotView::header(&mut Reader { buf: head, pos: 0 })
    }
}

/// Where a streamed field's payload bytes come from.
pub enum FieldSource<'a> {
    /// Stream a live cell through [`StateCell::write_state`] (zero-copy for
    /// contiguous little-endian containers).
    Cell(&'a dyn StateCell),
    /// Bytes in memory (a shard's owned block of a cell, gathered
    /// aggregate data).
    Bytes(&'a [u8]),
}

/// Where one field of a *delta* snapshot comes from.
pub enum DeltaSource<'a> {
    /// The whole field, as in a full snapshot (cells without write
    /// tracking).
    Full(FieldSource<'a>),
    /// Only the cell's dirty byte ranges, streamed straight from the cell
    /// through [`StateCell::write_dirty_state`] (zero-copy for LE
    /// containers). Offsets are relative to the cell's full encoding.
    DirtyCell {
        /// The live cell.
        cell: &'a dyn StateCell,
        /// Sorted, non-overlapping dirty byte ranges of the encoding.
        ranges: &'a [std::ops::Range<usize>],
    },
}

/// One record as [`crate::transport::CkptTransport::put`] sees it: the
/// header plus where each field's bytes come from.
pub enum Record<'a> {
    /// A full snapshot (the base of a chain).
    Full(&'a SnapshotMeta, &'a [(&'a str, FieldSource<'a>)]),
    /// A delta over the base saved at `DeltaMeta::base_count`.
    Delta(&'a DeltaMeta, &'a [(&'a str, DeltaSource<'a>)]),
}

impl Record<'_> {
    /// The key this record's header names.
    pub fn key(&self) -> RecordKey {
        match self {
            Record::Full(meta, _) => RecordKey::full(meta.rank),
            Record::Delta(meta, _) => RecordKey::delta(meta.rank, meta.seq),
        }
    }

    /// Expected encoded length, from the fields' known lengths: lets a
    /// sink pre-size its buffer (growth reallocs on a multi-MiB record
    /// would copy the payload several extra times) and a wire client
    /// announce the record size. A hint only, never a bound. Sparse
    /// entries contribute their range map + carried bytes.
    pub fn len_hint(&self) -> u64 {
        let whole = |source: &FieldSource<'_>| match source {
            FieldSource::Bytes(b) => b.len(),
            FieldSource::Cell(cell) => cell.byte_len(),
        };
        let fields: usize = match self {
            Record::Full(_, fields) => fields
                .iter()
                .map(|(name, source)| name.len() + 16 + whole(source))
                .sum(),
            Record::Delta(_, fields) => fields
                .iter()
                .map(|(name, source)| {
                    let body = match source {
                        DeltaSource::Full(source) => whole(source),
                        DeltaSource::DirtyCell { ranges, .. } => {
                            ranges.iter().map(|r| r.len()).sum::<usize>() + ranges.len() * 16
                        }
                    };
                    name.len() + 32 + body
                })
                .sum(),
        };
        (fields + 128) as u64
    }

    /// Stream the record, CRC trailer included, through the golden
    /// [`SnapshotWriter`] into `sink`. Returns `(bytes written, sink)`.
    pub fn encode<W: Write>(&self, sink: W) -> Result<(u64, W)> {
        match self {
            Record::Full(meta, fields) => {
                let mut w = SnapshotWriter::new(sink, meta, fields.len() as u32)?;
                for (name, source) in *fields {
                    w.field(name, source)?;
                }
                w.finish()
            }
            Record::Delta(meta, fields) => {
                let mut w = SnapshotWriter::delta_writer(sink, meta, fields.len() as u32)?;
                for (name, source) in *fields {
                    w.delta_field(name, source)?;
                }
                w.finish()
            }
        }
    }

    /// Stream this full record into `sink`, whose file may hold an older
    /// record of the same layout ([`RecordSink::held`]): per field, the
    /// payload ranges [`FieldPatch::write`] names are written and the sink
    /// moves past the rest ([`RecordSink::skip`]). Header, names, length
    /// prefixes and the trailer are always written, and the CRC runs over
    /// every byte of the record as it is in memory, so the trailer vouches
    /// for the state, not for the file: a byte the holder does not have as
    /// the rewrite assumed fails the record's CRC at restore. A field whose
    /// bytes do not lie in memory (a cell without [`StateCell::encoded`])
    /// is written whole and checksummed as it streams. A field given
    /// [`FieldPatch::known`] block CRCs checksums only the blocks it does
    /// not know, and its block CRCs come back in [`Patched::blocks`]; a
    /// delta record is refused.
    pub(crate) fn patch(
        &self,
        sink: &mut dyn RecordSink,
        fields: &[FieldPatch],
    ) -> Result<Patched> {
        let Record::Full(meta, sources) = self else {
            return Err(PparError::InvalidPlan("only a full record patches".into()));
        };
        let mut w = SnapshotWriter::new(sink, meta, sources.len() as u32)?;
        w.skip = Some(|sink, n| sink.skip(n));
        let mut blocks = Vec::with_capacity(sources.len());
        for (i, (name, source)) in sources.iter().enumerate() {
            let patch = fields.get(i);
            w.begin_field(name, None)?;
            blocks.push(w.put_whole(
                name,
                source,
                patch.and_then(|p| p.write.as_deref()),
                patch.and_then(|p| p.known.as_deref()),
            )?);
        }
        let skipped = w.skipped;
        let (len, crc, _) = w.seal()?;
        Ok(Patched {
            len,
            crc,
            skipped,
            blocks,
        })
    }

    /// Where each field's payload lies in this full record's encoding, in
    /// field order (none for a delta record), from the fields' known
    /// lengths — the length rule makes them exact.
    pub(crate) fn payload_spans(&self) -> Vec<Range<u64>> {
        let Record::Full(meta, fields) = self else {
            return Vec::new();
        };
        // magic, tag, count, rank, nranks, nfields.
        let mut at = (8 + 8 + meta.mode_tag.len() + 8 + 4 + 4 + 4) as u64;
        let spans = fields.iter().map(|(name, source)| {
            let len = match source {
                FieldSource::Bytes(b) => b.len(),
                FieldSource::Cell(cell) => cell.byte_len(),
            } as u64;
            let start = at + 8 + name.len() as u64 + 8;
            at = start + len;
            start..at
        });
        spans.collect()
    }
}

/// How [`Record::patch`] writes one field of a full record.
#[derive(Debug, Default)]
pub(crate) struct FieldPatch {
    /// The payload ranges the sink's file may lack (sorted, disjoint);
    /// `None`: the whole payload.
    pub(crate) write: Option<Vec<Range<usize>>>,
    /// Keep the payload's block CRCs ([`CRC_COPY_BLOCK`] each, the last one
    /// partial), given one entry per block: the CRC of a block the caller
    /// vouches for — it is as it was when that CRC was taken — or `None`
    /// for one to checksum. `None`: keep none, checksum in one pass.
    pub(crate) known: Option<Vec<Option<u32>>>,
}

/// What [`Record::patch`] wrote.
#[derive(Debug)]
pub(crate) struct Patched {
    /// Record length in bytes, CRC trailer included.
    pub(crate) len: u64,
    /// Its trailer: the CRC-32 of every byte before it.
    pub(crate) crc: u32,
    /// Bytes of it the sink moved past instead of writing.
    pub(crate) skipped: u64,
    /// Per field, its payload's block CRCs, for a field that was given
    /// [`FieldPatch::known`] and whose bytes lie in memory.
    pub(crate) blocks: Vec<Option<Vec<u32>>>,
}

/// Adapter that forwards writes to the sink while folding every byte into
/// the running CRC. Handed to [`StateCell::write_state`] so even
/// cell-driven writes stay on the single-pass path.
struct CrcTee<'a, W: Write> {
    sink: &'a mut W,
    crc: &'a mut Crc32,
    written: &'a mut u64,
}

impl<W: Write> Write for CrcTee<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Cap each write at one cache block; callers' `write_all` loops
        // re-enter, giving the interleaved CRC+copy pattern for free.
        let buf = &buf[..buf.len().min(CRC_COPY_BLOCK)];
        let n = self.sink.write(buf)?;
        self.crc.update(&buf[..n]);
        *self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

/// Single-pass snapshot encoder: header, fields and the trailing CRC-32 are
/// streamed straight into the sink (typically a [`BufWriter`] over the temp
/// file) while the checksum runs alongside — for a payload of 4 MiB or
/// more, on a helper thread beside the write. Produces bytes identical to
/// [`Snapshot::encode`] for the same content. A record enters it one way,
/// [`Record::encode`]; [`SnapshotWriter::new`] and
/// [`SnapshotWriter::field_cell`] remain for callers that drive a full
/// record by hand. Every record it writes carries its CRC, whichever medium
/// it is bound for.
pub struct SnapshotWriter<W: Write> {
    sink: W,
    crc: Crc32,
    written: u64,
    /// Bytes of `written` the sink moved past instead of writing.
    skipped: u64,
    fields_remaining: u32,
    /// How to move past bytes the sink already holds, when it holds a
    /// record this one rewrites in place ([`Record::patch`]); `None`: every
    /// byte is written.
    skip: Option<fn(&mut W, u64) -> std::io::Result<()>>,
}

impl<W: Write> SnapshotWriter<W> {
    fn empty(sink: W, nfields: u32) -> SnapshotWriter<W> {
        SnapshotWriter {
            sink,
            crc: Crc32::new(),
            written: 0,
            skipped: 0,
            fields_remaining: nfields,
            skip: None,
        }
    }

    /// Start a snapshot: writes the header for `meta` announcing `nfields`
    /// upcoming fields.
    pub fn new(sink: W, meta: &SnapshotMeta, nfields: u32) -> Result<SnapshotWriter<W>> {
        let mut w = SnapshotWriter::empty(sink, nfields);
        w.put(MAGIC)?;
        w.put_str(&meta.mode_tag)?;
        w.put(&meta.count.to_le_bytes())?;
        w.put(&meta.rank.unwrap_or(MASTER_RANK).to_le_bytes())?;
        w.put(&meta.nranks.to_le_bytes())?;
        w.put(&nfields.to_le_bytes())?;
        Ok(w)
    }

    /// A delta record's versioned header (see [`crate::delta`] for the
    /// format); fields and the trailer go through the same machinery as a
    /// full record's.
    fn delta_writer(sink: W, meta: &DeltaMeta, nfields: u32) -> Result<SnapshotWriter<W>> {
        let mut w = SnapshotWriter::empty(sink, nfields);
        w.put(crate::delta::DELTA_MAGIC)?;
        w.put(&crate::delta::DELTA_VERSION.to_le_bytes())?;
        w.put_str(&meta.mode_tag)?;
        w.put(&meta.count.to_le_bytes())?;
        w.put(&meta.base_count.to_le_bytes())?;
        w.put(&meta.seq.to_le_bytes())?;
        w.put(&meta.rank.unwrap_or(MASTER_RANK).to_le_bytes())?;
        w.put(&meta.nranks.to_le_bytes())?;
        w.put(&nfields.to_le_bytes())?;
        Ok(w)
    }

    /// Write `bytes` to the sink, CRC running: [`SnapshotWriter::put_spans`]
    /// over the whole of it.
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.put_spans(bytes, std::slice::from_ref(&(0..bytes.len())), None)
            .map(drop)
    }

    /// Write the `write` ranges of `bytes` (sorted, disjoint) and move past
    /// the rest, which the sink already holds; the CRC runs over every byte
    /// of `bytes`, written or not. Given `known` block CRCs
    /// ([`FieldPatch::known`]), only the other blocks are checksummed, and
    /// every block's CRC comes back.
    ///
    /// A payload written whole whose blocks to checksum start no helper
    /// ([`helpers`]) interleaves CRC and copy block by block, each block
    /// cache-hot from the other — without `known`, through the same tee as
    /// a streamed cell ([`SnapshotWriter::stream`]). Any other goes to the
    /// block engine ([`crc_blocks`]), the write being this thread's work.
    fn put_spans(
        &mut self,
        bytes: &[u8],
        write: &[Range<usize>],
        known: Option<&[Option<u32>]>,
    ) -> Result<Option<Vec<u32>>> {
        let blocks = bytes.len().div_ceil(CRC_COPY_BLOCK);
        if known.is_some_and(|known| known.len() != blocks) {
            return Err(PparError::InvalidPlan(format!(
                "{} known block CRCs for a {}-byte payload of {blocks} blocks",
                known.map_or(0, <[_]>::len),
                bytes.len()
            )));
        }
        let whole = write.len() == 1 && write[0] == (0..bytes.len());
        let crcs = if whole && helpers(bytes.len(), known) == 0 {
            let Some(known) = known else {
                self.stream(|tee| Ok(tee.write_all(bytes).map(|()| bytes.len() as u64)?))?;
                return Ok(None);
            };
            let mut crcs = Vec::new();
            for (block, known) in bytes.chunks(CRC_COPY_BLOCK).zip(known) {
                let crc = known.unwrap_or_else(|| crc32(block));
                join_block(&mut self.crc, crc, block.len());
                crcs.push(crc);
                self.sink.write_all(block)?;
            }
            crcs
        } else {
            let (sink, skip) = (&mut self.sink, self.skip);
            let block =
                |i: usize| &bytes[i * CRC_COPY_BLOCK..bytes.len().min((i + 1) * CRC_COPY_BLOCK)];
            let checksum = |i, _: &mut _| Ok(crc32(block(i)));
            let write = || write_spans(sink, bytes, write, skip);
            let (skipped, crcs) = crc_blocks(&mut self.crc, bytes.len(), known, checksum, write)?;
            self.skipped += skipped;
            crcs
        };
        self.written += bytes.len() as u64;
        Ok(known.map(|_| crcs))
    }

    fn put_str(&mut self, s: &str) -> Result<()> {
        self.put(&(s.len() as u64).to_le_bytes())?;
        self.put(s.as_bytes())
    }

    /// A field's name, and for a delta field its kind byte (0 = whole,
    /// 1 = sparse).
    fn begin_field(&mut self, name: &str, kind: Option<u8>) -> Result<()> {
        if self.fields_remaining == 0 {
            return Err(PparError::InvalidPlan(
                "SnapshotWriter: more fields written than announced".into(),
            ));
        }
        self.fields_remaining -= 1;
        self.put_str(name)?;
        kind.map_or(Ok(()), |kind| self.put(&[kind]))
    }

    /// Whatever `write` streams into the sink, CRC running; returns the
    /// bytes it wrote.
    fn stream(&mut self, write: impl FnOnce(&mut dyn Write) -> Result<u64>) -> Result<u64> {
        write(&mut CrcTee {
            sink: &mut self.sink,
            crc: &mut self.crc,
            written: &mut self.written,
        })
    }

    /// A whole payload: its length, then its bytes. A cell is announced at
    /// [`StateCell::byte_len`]; one whose memory already is its encoding
    /// ([`StateCell::encoded`]) lends those bytes to [`SnapshotWriter::put`],
    /// any other streams through [`StateCell::write_state`].
    ///
    /// With `rewrite`, a payload whose bytes lie in memory writes only those
    /// ranges and moves past the rest ([`Record::patch`]); with `known`, it
    /// checksums only the blocks whose CRC is not known and returns every
    /// block's CRC ([`SnapshotWriter::put_spans`]).
    fn put_whole(
        &mut self,
        name: &str,
        source: &FieldSource<'_>,
        rewrite: Option<&[Range<usize>]>,
        known: Option<&[Option<u32>]>,
    ) -> Result<Option<Vec<u32>>> {
        let (len, bytes) = match source {
            FieldSource::Bytes(bytes) => (bytes.len() as u64, Some(*bytes)),
            FieldSource::Cell(cell) => (cell.byte_len() as u64, cell.encoded()),
        };
        self.put(&len.to_le_bytes())?;
        let Some(bytes) = bytes else {
            let FieldSource::Cell(cell) = source else {
                unreachable!("bytes are in memory")
            };
            let streamed = self.stream(|tee| cell.write_state(tee))?;
            return carried(name, len, streamed).map(|()| None);
        };
        carried(name, len, bytes.len() as u64)?;
        let whole = 0..bytes.len();
        let write = rewrite.unwrap_or(std::slice::from_ref(&whole));
        let blocks = self.put_spans(bytes, write, known)?;
        #[cfg(debug_assertions)]
        if let Some(known) = known {
            check_known_blocks(name, bytes, known);
        }
        Ok(blocks)
    }

    /// A sparse entry up to its ranges' bytes: the name, kind 1 and the
    /// range map. Returns the bytes the ranges announce.
    fn begin_sparse(&mut self, name: &str, full_len: u64, ranges: &[Range<usize>]) -> Result<u64> {
        self.begin_field(name, Some(1))?;
        self.put(&full_len.to_le_bytes())?;
        self.put(&(ranges.len() as u32).to_le_bytes())?;
        let mut total = 0u64;
        for r in ranges {
            let len = (r.end - r.start) as u64;
            self.put(&(r.start as u64).to_le_bytes())?;
            self.put(&len.to_le_bytes())?;
            total += len;
        }
        Ok(total)
    }

    /// `field(name, &FieldSource::Cell(cell))`; `_scratch` is ignored. Kept
    /// only because the benchmark under `ledger/`, which may not change,
    /// calls it by this name and with this argument list.
    pub fn field_cell(
        &mut self,
        name: &str,
        cell: &dyn StateCell,
        _scratch: &mut Vec<u8>,
    ) -> Result<()> {
        self.field(name, &FieldSource::Cell(cell))
    }

    /// Write one field of a full record from a [`FieldSource`].
    pub fn field(&mut self, name: &str, source: &FieldSource<'_>) -> Result<()> {
        self.begin_field(name, None)?;
        self.put_whole(name, source, None, None).map(drop)
    }

    /// Write one field of a delta record from a [`DeltaSource`]: a whole
    /// field is kind 0; dirty ranges are kind 1, streamed from the cell
    /// through [`StateCell::write_dirty_state`] (only touched chunks leave
    /// it).
    fn delta_field(&mut self, name: &str, source: &DeltaSource<'_>) -> Result<()> {
        match source {
            DeltaSource::Full(whole) => {
                self.begin_field(name, Some(0))?;
                self.put_whole(name, whole, None, None).map(drop)
            }
            DeltaSource::DirtyCell { cell, ranges } => {
                let total = self.begin_sparse(name, cell.byte_len() as u64, ranges)?;
                let streamed = self.stream(|tee| cell.write_dirty_state(ranges, tee))?;
                carried(name, total, streamed)
            }
        }
    }

    /// Seal the snapshot: append the running CRC, flush the sink and return
    /// `(total bytes written, sink)`.
    pub fn finish(self) -> Result<(u64, W)> {
        let (written, _, sink) = self.seal()?;
        Ok((written, sink))
    }

    /// [`SnapshotWriter::finish`], the record's CRC returned too.
    fn seal(mut self) -> Result<(u64, u32, W)> {
        if self.fields_remaining != 0 {
            return Err(PparError::InvalidPlan(format!(
                "SnapshotWriter: {} announced fields never written",
                self.fields_remaining
            )));
        }
        let crc = self.crc.finish();
        self.sink.write_all(&crc.to_le_bytes())?;
        self.written += 4;
        self.sink.flush()?;
        Ok((self.written, crc, self.sink))
    }
}

/// Write the `write` ranges of `bytes` into `sink` in order, moving past
/// the bytes between them (and after the last) with `skip`; returns the
/// bytes moved past. A range that is out of order or outside `bytes` is
/// refused, as is a gap without `skip`.
fn write_spans<W: Write>(
    sink: &mut W,
    bytes: &[u8],
    write: &[Range<usize>],
    skip: Option<fn(&mut W, u64) -> std::io::Result<()>>,
) -> Result<u64> {
    let mut skipped = 0;
    let mut pass = |sink: &mut W, n: usize| {
        skipped += n as u64;
        match (n, skip) {
            (0, _) => Ok(()),
            (n, Some(skip)) => skip(sink, n as u64),
            (_, None) => Err(std::io::Error::other(
                "a gap in a write with nothing to skip it",
            )),
        }
    };
    let mut at = 0;
    for r in write {
        let span = bytes
            .get(r.clone())
            .filter(|_| r.start >= at)
            .ok_or_else(|| {
                PparError::InvalidPlan(format!(
                    "rewrite range {r:?} is out of order or outside a {}-byte payload",
                    bytes.len()
                ))
            })?;
        pass(sink, r.start - at)?;
        sink.write_all(span)?;
        at = r.end;
    }
    pass(sink, bytes.len() - at)?;
    Ok(skipped)
}

/// The save-time oracle of a cached CRC: every block whose CRC the caller
/// vouched for ([`FieldPatch::known`]) must still checksum to it. A block
/// that does not was written since that CRC was taken without its writer
/// marking it (a write the dirty tracker missed): the record would carry a
/// CRC of bytes that are not in memory, so this panics, naming the field,
/// the block and where it lies in the payload. Debug builds only.
#[cfg(debug_assertions)]
fn check_known_blocks(name: &str, bytes: &[u8], known: &[Option<u32>]) {
    for (i, (block, known)) in bytes.chunks(CRC_COPY_BLOCK).zip(known).enumerate() {
        if let Some(known) = *known {
            let at = i * CRC_COPY_BLOCK;
            assert!(
                crc32(block) == known,
                "cached block CRC mismatch: field {name:?}, block {i}, payload bytes \
                 {at}..{}: written since the save that cached its CRC, yet no write \
                 marked it dirty",
                at + block.len()
            );
        }
    }
}

/// The length rule: a field streams exactly the bytes its header announced.
fn carried(name: &str, announced: u64, streamed: u64) -> Result<()> {
    if streamed != announced {
        return Err(PparError::CorruptCheckpoint(format!(
            "field {name:?}: {announced} bytes announced but {streamed} streamed"
        )));
    }
    Ok(())
}

/// The file-backed store is the durable [`CkptTransport`]: one sink per
/// layout holds that layout's one commit sequence, and the golden encoder
/// feeding it keeps the on-disk format byte-identical to every earlier
/// release (golden-bytes tested below).
impl CkptTransport for CheckpointStore {
    fn describe(&self) -> &'static str {
        "file"
    }

    /// A shard delta key is refused before anything is touched, in both
    /// layouts: a shard is one full record (see [`crate::hook`]).
    fn begin<'a>(&'a self, key: RecordKey, _len_hint: u64) -> Result<Box<dyn RecordSink + 'a>> {
        if let RecordKey {
            rank: Some(rank),
            delta: Some(seq),
        } = key
        {
            return Err(PparError::InvalidPlan(format!(
                "shard {rank} delta {seq}: a shard is saved as a full record only"
            )));
        }
        let dst = self.record_path(key);
        if let Some(cas) = &self.cas {
            return Ok(Box::new(CasSink {
                store: self,
                cas,
                key,
                name: CheckpointStore::rec_name(&dst).to_string(),
                state: CasState::Idle,
                head: Vec::with_capacity(256),
            }));
        }
        // Unique temp name per in-flight sink: parallel per-rank lanes may
        // stream into the same directory concurrently.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dst.with_extension(format!("tmp{n}"));
        // A shard whose commit rotates its record aside evicts its `_prev`,
        // the generation before the group's commit point, which no restore
        // needs any more: the sink claims that file.
        let rotates = self.rotates(key)?;
        let spare = match key.rank {
            Some(rank) if rotates => self.prev_shard_path(rank),
            _ => spare_path(&dst),
        };
        let (file, claimed) = claim_spare(&spare, &tmp)?;
        Ok(Box::new(FlatSink {
            store: self,
            key,
            tmp,
            dst,
            spare,
            rotates,
            w: BufWriter::new(file),
            claimed,
            head: Vec::with_capacity(256),
            written: 0,
            committed: false,
        }))
    }

    fn with_merged(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool> {
        let merged = self.merged(rank, at)?;
        merged.map_or(Ok(false), |merged| read(&merged.view()).map(|()| true))
    }

    fn write_merged_record_at(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        out: &mut dyn Write,
    ) -> Result<Option<u64>> {
        // Copy-through: a base record that *is* the checksummed merged
        // record goes straight out without being parsed (the receiving end
        // verifies the trailing CRC) — the current base when no delta chain
        // is pending, or whichever retained generation sits exactly at the
        // pinned safe point.
        let current = self.record_path(RecordKey::full(rank));
        match at {
            None if !self.record_exists(&self.record_path(RecordKey::delta(rank, 1))) => {
                return self.record_copy_to(&current, out);
            }
            None => {}
            Some(count) => {
                for path in std::iter::once(current).chain(rank.map(|r| self.prev_shard_path(r))) {
                    if self.peek_count(&path) == Some(count) {
                        if let Some(written) = self.record_copy_to(&path, out)? {
                            return Ok(Some(written));
                        }
                    }
                }
            }
        }
        stream_merged(self, rank, at, out)
    }

    fn take_put_stats(&self) -> crate::cas::PutStats {
        match &self.cas {
            Some(cas) => cas.take_put_stats(),
            None => crate::cas::PutStats::default(),
        }
    }
}

/// The flat layout's sink and its one commit sequence: bytes stream
/// through a [`BufWriter`] into a uniquely named temp file — the key's
/// spare when one can be claimed, rewritten in place: whole, or only where
/// a caller that recognises the record the spare holds ([`RecordSink::held`])
/// says it differs, the rest skipped over — and commit flushes, trims a
/// claimed spare longer than the record to the bytes written (one of equal
/// length is left alone: the truncate would wait for the writeback the
/// rename that last published the file started), rotates the shard
/// generation the group last committed aside (full shard records only),
/// renames over the final name and — for a master base — retires the chain
/// the new base supersedes. Each step that drops a file's record name gives
/// the file a spare name first, into the commit's [`Superseded`]. A crash,
/// an abort or a drop mid-stream never leaves a partial record under the
/// final name, and the temp file — a claimed spare included — is removed.
struct FlatSink<'a> {
    store: &'a CheckpointStore,
    key: RecordKey,
    tmp: PathBuf,
    dst: PathBuf,
    /// The name the temp file was claimed from: the record name's spare,
    /// or a rotating shard's `_prev`.
    spare: PathBuf,
    /// The commit rotates the shard's record to `_prev`: decided once, at
    /// begin, when the sink claimed that `_prev`.
    rotates: bool,
    w: BufWriter<fs::File>,
    /// The claimed spare's length when the temp file is one, its only
    /// name: what it holds may be offered as a base ([`RecordSink::held`]).
    /// `None` for a fresh file.
    claimed: Option<u64>,
    /// The record's leading bytes, as long as they were written without a
    /// gap (a skip ends it; the header always comes first).
    head: Vec<u8>,
    /// Where the next byte goes: bytes written plus bytes skipped.
    written: u64,
    /// The temp file has been renamed away; nothing is left to remove.
    committed: bool,
}

impl Write for FlatSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = self.w.write(bytes)?;
        if self.head.len() as u64 == self.written {
            keep_head(&mut self.head, &bytes[..n]);
        }
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

impl RecordSink for FlatSink<'_> {
    /// The claimed spare's length, header count and trailer, read where
    /// they lie; `None` for a fresh file, and for a spare too short or
    /// whose header does not parse.
    fn held(&mut self) -> Result<Option<Held>> {
        let Some(len) = self.claimed.filter(|_| self.written == 0) else {
            return Ok(None);
        };
        let file = self.w.get_ref();
        if len < (MAGIC.len() + 4) as u64 {
            return Ok(None);
        }
        let mut head = vec![0; HEAD_BYTES.min(len as usize - 4)];
        let mut trailer = [0; 4];
        read_exact_at(file, &mut head, 0)?;
        read_exact_at(file, &mut trailer, len - 4)?;
        Ok(SnapshotMeta::of_head(&head).ok().map(|meta| Held {
            len,
            count: meta.count,
            crc: u32::from_le_bytes(trailer),
        }))
    }

    fn skip(&mut self, n: u64) -> std::io::Result<()> {
        if self.claimed.is_none() {
            return Err(std::io::Error::other("a fresh file holds nothing to skip"));
        }
        let ahead = i64::try_from(n).map_err(std::io::Error::other)?;
        self.w.seek(std::io::SeekFrom::Current(ahead))?;
        self.written += n;
        Ok(())
    }

    fn commit(mut self: Box<Self>) -> Result<Superseded> {
        self.w.flush()?;
        // Only a longer spare is trimmed: on ext4 even a truncate to the
        // file's own length waits for writeback in flight on it.
        if self.claimed.is_some_and(|len| len > self.written) {
            self.w.get_ref().set_len(self.written)?;
        }
        self.key.check_record(&self.head)?;
        let mut gone = Superseded::new(self.written);
        self.store.rotate_generation(self.key, self.rotates)?;
        self.store
            .spare(&self.dst, spare_path(&self.dst), &mut gone);
        fs::rename(&self.tmp, &self.dst)?;
        self.committed = true;
        self.store.retire_chain(self.key, &mut gone)?;
        Ok(gone)
    }
}

/// The suffix of a spare name.
const SPARE: &str = ".spare";

/// The spare name of the record name `path`: `<path>.spare`.
fn spare_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(SPARE);
    PathBuf::from(name)
}

/// Open the temp file `tmp` for a flat sink: the record name's `spare`,
/// claimed by renaming it to `tmp` and opened to be rewritten in place
/// (with its length, which the commit trims only if the record is shorter),
/// or a fresh file when there is no spare to claim (`None`). A
/// claimed file that still has another name — a crash cut a commit between
/// its link and its rename, so the spare is also a live record — is never
/// written: it is unlinked and a fresh file takes its place.
fn claim_spare(spare: &Path, tmp: &Path) -> Result<(fs::File, Option<u64>)> {
    if fs::rename(spare, tmp).is_ok() {
        let file = fs::OpenOptions::new().read(true).write(true).open(tmp)?;
        let meta = file.metadata()?;
        if sole_name(&meta) {
            return Ok((file, Some(meta.len())));
        }
        drop(file);
        fs::remove_file(tmp)?;
    }
    Ok((fs::File::create(tmp)?, None))
}

/// Fill `out` from `file` at `offset`, leaving its cursor where it is.
#[cfg(unix)]
fn read_exact_at(file: &fs::File, out: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, out, offset)
}

/// Off Unix no spare is ever claimed ([`sole_name`]), so nothing reads one.
#[cfg(not(unix))]
fn read_exact_at(_file: &fs::File, _out: &mut [u8], _offset: u64) -> std::io::Result<()> {
    Err(std::io::Error::other("positioned reads need Unix"))
}

#[cfg(unix)]
fn sole_name(meta: &fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    meta.nlink() == 1
}

/// Without a link count to check, a claimed spare is never trusted.
#[cfg(not(unix))]
fn sole_name(_meta: &fs::Metadata) -> bool {
    false
}

/// An abandoned sink removes its temp file — unless it is a claimed spare
/// that never took a byte (a checkpoint service's lane answering a dedup
/// question it cannot serve drops its sink so): that file goes back to its
/// spare name, when the name is free, for the next save to claim.
impl Drop for FlatSink<'_> {
    fn drop(&mut self) {
        if self.committed {
            return;
        }
        if self.claimed.is_some() && self.written == 0 {
            let _ = fs::hard_link(&self.tmp, &self.spare);
        }
        let _ = fs::remove_file(&self.tmp);
    }
}

/// What a [`CasSink`] has been asked to do so far. Nothing touches the
/// journal until the first byte or the dedup question arrives.
enum CasState {
    Idle,
    /// The record streams in whole; chunks dedup as they seal.
    Stream(crate::cas::CasTxn),
    /// The chunk list was announced up front; only lacking chunks stream in.
    Dedup(crate::cas::DedupTxn),
}

/// The content-addressed layout's sink and its one commit sequence: stage
/// (seal + fsync the journal manifest) *before* rotating the previous shard
/// generation aside — if staging fails, the directory is untouched — then
/// promote by rename, retire the chain a new master base supersedes, and
/// drop any legacy flat file of the same name.
/// Dropping the transaction (abort, error, drop) rolls its journal back.
struct CasSink<'a> {
    store: &'a CheckpointStore,
    cas: &'a crate::cas::CasStore,
    key: RecordKey,
    name: String,
    state: CasState,
    head: Vec<u8>,
}

impl Write for CasSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        if let CasState::Idle = self.state {
            self.state = CasState::Stream(self.cas.begin().map_err(std::io::Error::other)?);
        }
        match &mut self.state {
            CasState::Stream(txn) => {
                keep_head(&mut self.head, bytes);
                txn.write(bytes)
            }
            CasState::Dedup(txn) => txn.write(bytes),
            CasState::Idle => unreachable!("a transaction was just opened"),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl RecordSink for CasSink<'_> {
    fn lacking(&mut self, chunks: &[ChunkRef], total_len: u64) -> Result<Option<Vec<u32>>> {
        let CasState::Idle = self.state else {
            return Err(PparError::InvalidPlan(
                "the dedup question comes before the first record byte".into(),
            ));
        };
        let txn = self.cas.begin_dedup(chunks, total_len)?;
        let lacking = txn.missing().to_vec();
        self.state = CasState::Dedup(txn);
        Ok(Some(lacking))
    }

    fn commit(self: Box<Self>) -> Result<Superseded> {
        let CasSink {
            store,
            key,
            name,
            state,
            head,
            ..
        } = *self;
        let mut gone = Superseded::default();
        let written = match state {
            CasState::Idle => {
                return Err(PparError::CorruptCheckpoint(format!(
                    "no bytes were written for {key:?}"
                )))
            }
            CasState::Stream(txn) => {
                key.check_record(&head)?;
                let staged = txn.stage(&name)?;
                store.rotate_generation(key, store.rotates(key)?)?;
                staged.promote()?
            }
            // Integrity of a digest-negotiated record rides the per-chunk
            // digests the store verified at supply time (its CRC is still
            // checked whenever the record is read back); routing is checked
            // here like everywhere else, on the header its leading chunk
            // holds.
            CasState::Dedup(txn) => {
                key.check_record(&txn.head(HEAD_BYTES)?)?;
                store.rotate_generation(key, store.rotates(key)?)?;
                txn.commit(&name)?
            }
        };
        store.retire_chain(key, &mut gone)?;
        // A freshly committed content-addressed record supersedes any
        // legacy flat file of the same name left from before the layout
        // switch.
        let _ = fs::remove_file(store.dir.join(&name));
        gone.bytes = written;
        Ok(gone)
    }
}

/// What the record decoders read, front to back: a record body held in
/// memory ([`Reader`]) or one arriving from a medium ([`RecordStream`]), so
/// each format's layout rules are written once for both. Every length and
/// count it hands out came from the record and is checked against the body
/// bytes that remain before it sizes a read, an offset or an allocation: an
/// absurd value in an unverified head, or in a record whose CRC happens to
/// hold, is a `CorruptCheckpoint`, never a panic or an allocation failure.
pub(crate) trait Input {
    /// Body bytes consumed so far.
    fn pos(&self) -> usize;

    /// Body bytes not yet consumed.
    fn left(&self) -> usize;

    /// The next `out.len()` body bytes, copied into `out`.
    fn fill(&mut self, out: &mut [u8]) -> Result<()>;

    /// Pass over the next `n` body bytes.
    fn skip(&mut self, n: usize) -> Result<()>;

    /// Refuse a read of `n` bytes the body does not hold.
    fn check(&self, n: usize) -> Result<()> {
        if n > self.left() {
            return Err(PparError::CorruptCheckpoint(format!(
                "truncated: wanted {n} bytes at offset {}",
                self.pos()
            )));
        }
        Ok(())
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        self.fill(&mut out)?;
        Ok(out)
    }

    fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// A `u64` length prefix, as an offset into this address space.
    fn take_len(&mut self) -> Result<usize> {
        let len = self.take_u64()?;
        usize::try_from(len).map_err(|_| {
            PparError::CorruptCheckpoint(format!("length {len} exceeds the address space"))
        })
    }

    /// A `u32` element count, refused unless the remaining bytes can hold
    /// that many elements of at least `min_each` bytes — so it is safe to
    /// use as a capacity.
    fn take_count(&mut self, min_each: usize, what: &str) -> Result<usize> {
        let n = self.take_u32()? as usize;
        let left = self.left();
        if n.checked_mul(min_each).is_none_or(|need| need > left) {
            return Err(PparError::CorruptCheckpoint(format!(
                "record names {n} {what} but only {left} bytes remain"
            )));
        }
        Ok(n)
    }

    fn take_str(&mut self) -> Result<String> {
        let len = self.take_len()?;
        self.check(len)?;
        let mut bytes = vec![0; len];
        self.fill(&mut bytes)?;
        String::from_utf8(bytes)
            .map_err(|e| PparError::CorruptCheckpoint(format!("invalid utf-8: {}", e.utf8_error())))
    }

    /// The record must end here (`before` names what follows the body).
    fn finish(&self, before: &str) -> Result<()> {
        if self.left() != 0 {
            return Err(PparError::CorruptCheckpoint(format!(
                "{} unconsumed bytes before {before}",
                self.left()
            )));
        }
        Ok(())
    }
}

/// The [`Input`] over record bytes in memory; [`Reader::take`] lends a
/// payload where it lies.
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        self.check(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

impl Input for Reader<'_> {
    fn pos(&self) -> usize {
        self.pos
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn fill(&mut self, out: &mut [u8]) -> Result<()> {
        out.copy_from_slice(self.take(out.len())?);
        Ok(())
    }

    fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(drop)
    }
}

/// A record read front to back off the disk (`src` yields exactly the
/// record's `len` bytes), CRC-checked on the way through: every block of up
/// to [`CRC_COPY_BLOCK`] bytes is folded into the running CRC as soon as it
/// lands, while it is still in cache. So a record is read once, into
/// wherever its bytes belong, and no record-sized buffer is needed to check
/// it.
///
/// **A large span is read on every core.** A span — a `fill` or a `skip` —
/// long enough for the block engine ([`crc_blocks`]) to start a helper, of
/// a record with positioned access, is read block by block at its offset
/// by every thread the engine runs ([`read_blocks`]); the front reader then
/// moves past it. The trailer is checked against exactly the value one
/// front-to-back pass computes, and every error is the one it reports.
///
/// A verdict reached before the end waits for the CRC: [`RecordStream::fail`]
/// reads the rest, and a record that fails its CRC reports that instead.
pub(crate) struct RecordStream<'s> {
    src: OnDisk<'s>,
    /// Body length: the record without its 4-byte trailer.
    len: usize,
    pos: usize,
    crc: Crc32,
    /// `""` or `"delta "`: prefixes the CRC error.
    what: &'static str,
}

impl<'s> RecordStream<'s> {
    pub(crate) fn new(src: OnDisk<'s>, len: u64, what: &'static str) -> Result<Self> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < MAGIC.len() + 4 {
            return Err(PparError::CorruptCheckpoint(format!(
                "{what}record too short"
            )));
        }
        Ok(RecordStream {
            src,
            len: len - 4,
            pos: 0,
            crc: Crc32::new(),
            what,
        })
    }

    /// The whole body in a buffer of its own, checked — one record-sized
    /// allocation, one pass.
    pub(crate) fn into_body(mut self) -> Result<Vec<u8>> {
        let mut body = vec![0; self.len];
        self.fill(&mut body)?;
        self.end()?;
        Ok(body)
    }

    /// The record's end: what is left of the body is read and the trailer
    /// checked.
    pub(crate) fn end(mut self) -> Result<()> {
        self.skip(self.left())?;
        let mut trailer = [0; 4];
        self.src.read_exact(&mut trailer)?;
        let stored = u32::from_le_bytes(trailer);
        let computed = self.crc.finish();
        if computed != stored {
            return Err(PparError::CorruptCheckpoint(format!(
                "{}CRC mismatch: stored {stored:#010x}, computed {computed:#010x}",
                self.what
            )));
        }
        Ok(())
    }

    /// `err`, unless the record fails its CRC (or cannot be read to its
    /// end): a verdict on a record's contents is only as good as the CRC
    /// that vouches for them, exactly as when the CRC is checked first.
    pub(crate) fn fail(self, err: PparError) -> PparError {
        self.end().err().unwrap_or(err)
    }

    /// The next `len` body bytes, CRC running — into `out`, or, passed
    /// over, through a block-sized scratch only to be checked: on every
    /// core when the span is long enough and the record has positioned
    /// access, front to back otherwise.
    fn read(&mut self, len: usize, out: Option<&mut [u8]>) -> Result<()> {
        self.check(len)?;
        match self.src.at.as_deref() {
            Some(at) if helpers(len, None) > 0 => {
                read_blocks(at, self.pos as u64, len, out, &mut self.crc)?;
                let len = i64::try_from(len).map_err(std::io::Error::other)?;
                self.src.front.seek_relative(len)?;
            }
            _ => read_front(&mut self.src, len, out, &mut self.crc)?,
        }
        self.pos += len;
        Ok(())
    }
}

impl Input for RecordStream<'_> {
    fn pos(&self) -> usize {
        self.pos
    }

    fn left(&self) -> usize {
        self.len - self.pos
    }

    fn fill(&mut self, out: &mut [u8]) -> Result<()> {
        self.read(out.len(), Some(out))
    }

    fn skip(&mut self, n: usize) -> Result<()> {
        self.read(n, None)
    }
}

/// Read `len` bytes from `src` into `out` (or a block-sized scratch), front
/// to back, folding each block into `crc` as it lands. Reads ask for a
/// block at a time from wherever the last one ended: a source buffered by
/// the block then serves small reads from its buffer and passes block-sized
/// ones straight into place.
fn read_front<S: Read + ?Sized>(
    src: &mut S,
    len: usize,
    out: Option<&mut [u8]>,
    crc: &mut Crc32,
) -> Result<()> {
    let Some(out) = out else {
        let mut scratch = vec![0; len.min(CRC_COPY_BLOCK)];
        for start in (0..len).step_by(CRC_COPY_BLOCK) {
            let block = &mut scratch[..CRC_COPY_BLOCK.min(len - start)];
            read_front(src, block.len(), Some(block), crc)?;
        }
        return Ok(());
    };
    let mut done = 0;
    while done < out.len() {
        let want = (out.len() - done).min(CRC_COPY_BLOCK);
        let got = match src.read(&mut out[done..done + want]) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
            Ok(got) => got,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        crc.update(&out[done..done + got]);
        done += got;
    }
    Ok(())
}

/// Read `len` bytes, from record offset `offset`, through `at` by the block
/// engine ([`crc_blocks`]): each block at its offset, straight into its
/// place in `out` (or through the claiming thread's own scratch), and
/// checksummed once it has landed.
fn read_blocks(
    at: &dyn ReadAt,
    offset: u64,
    len: usize,
    out: Option<&mut [u8]>,
    crc: &mut Crc32,
) -> Result<()> {
    let out: Vec<Mutex<&mut [u8]>> = match out {
        Some(out) => out.chunks_mut(CRC_COPY_BLOCK).map(Mutex::new).collect(),
        None => Vec::new(),
    };
    let read = |i: usize, scratch: &mut Vec<u8>| {
        let start = i * CRC_COPY_BLOCK;
        let from = offset + start as u64;
        let Some(block) = out.get(i) else {
            scratch.resize(CRC_COPY_BLOCK.min(len - start), 0);
            at.read_exact_at(scratch, from)?;
            return Ok(crc32(scratch));
        };
        let mut block = block.lock();
        at.read_exact_at(&mut block, from)?;
        Ok::<_, std::io::Error>(crc32(&block))
    };
    crc_blocks(crc, len, None, read, || Ok(()))?;
    Ok(())
}

/// Positioned access to a record's bytes, shared by threads: what lets a
/// [`RecordStream`] read one span on several cores.
pub(crate) trait ReadAt: Sync {
    /// Fill `out` with the record's bytes from `offset` on.
    fn read_exact_at(&self, out: &mut [u8], offset: u64) -> std::io::Result<()>;
}

/// A flat file is read at an offset by `pread`, which never moves the
/// file's cursor.
#[cfg(unix)]
impl ReadAt for fs::File {
    fn read_exact_at(&self, out: &mut [u8], offset: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, out, offset)
    }
}

/// A reader that can also move ahead.
pub(crate) trait ReadSeek: Read + Seek {}

impl<T: Read + Seek> ReadSeek for T {}

/// A record opened on disk for one read: front to back through a
/// block-sized buffer, and positioned access beside it — a second handle on
/// the flat file, or a second reader of the record's chunk objects. Flat
/// files off Unix have none, and read every span front to back.
pub(crate) struct OnDisk<'s> {
    front: BufReader<Box<dyn ReadSeek + 's>>,
    at: Option<Box<dyn ReadAt + 's>>,
}

impl<'s> OnDisk<'s> {
    pub(crate) fn new(front: Box<dyn ReadSeek + 's>, at: Option<Box<dyn ReadAt + 's>>) -> Self {
        OnDisk {
            front: BufReader::with_capacity(CRC_COPY_BLOCK, front),
            at,
        }
    }
}

impl Read for OnDisk<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.front.read(buf)
    }
}

/// A record opened for one front-to-back read: its length and its bytes.
type Opened<'s> = (u64, OnDisk<'s>);

// ---------------------------------------------------------------------------
// chain rules
// ---------------------------------------------------------------------------

/// Delta-chain step validity, as [`walk_chain`] — the one walk behind both
/// the restart target and the restored state — applies it. Returns
/// `Ok(false)` for a *stale* delta (previous base generation — terminates
/// the walk harmlessly); errors on ordering violations.
fn chain_step_is_live(
    meta: &DeltaMeta,
    base_count: u64,
    expected_seq: u32,
    prev_count: u64,
) -> Result<bool> {
    if meta.base_count != base_count {
        return Ok(false);
    }
    if meta.seq != expected_seq {
        return Err(PparError::CorruptCheckpoint(format!(
            "delta file {expected_seq} carries sequence number {}",
            meta.seq
        )));
    }
    if meta.count <= prev_count {
        return Err(PparError::CorruptCheckpoint(format!(
            "delta {expected_seq} count {} does not advance past {prev_count}",
            meta.count
        )));
    }
    Ok(true)
}

/// Walk the delta chain over the base saved at `base_count`: from delta 1
/// until the first missing or stale record, stopping *before* any delta
/// that would pass a pinned `at` (a torn chain whose tip outran the group
/// commit serves the committed prefix). Each live delta goes to `fold`,
/// which reads the rest of it past the header; the safe point reached is
/// returned — with a `fold` that reads nothing, this is the chain's tip,
/// every record still read to its end and CRC-checked.
///
/// `delta(seq)` opens delta `seq` where it lies — a file, or a record's
/// chunk objects — `None` when there is no such delta. Each record is read
/// once through a [`RecordStream`], its CRC checked on the way through, and
/// no verdict is acted on before that CRC: a header that says stale, out of
/// order, past the pin or malformed — and whatever `fold` refuses — is read
/// to its end first, and a record that fails its CRC is that error instead.
/// Only a verified stale delta ends the walk.
fn walk_chain<'s>(
    base_count: u64,
    at: Option<u64>,
    mut delta: impl FnMut(u32) -> Result<Option<Opened<'s>>>,
    mut fold: impl FnMut(&DeltaMeta, &mut RecordStream<'s>) -> Result<()>,
) -> Result<u64> {
    let mut count = base_count;
    let mut seq = 1u32;
    while at.is_none_or(|at| count < at) {
        let Some((len, src)) = delta(seq)? else {
            break;
        };
        let mut record = RecordStream::new(src, len, "delta ")?;
        let step = DeltaMeta::header(&mut record).and_then(|meta| {
            let live = chain_step_is_live(&meta, base_count, seq, count)?
                && at.is_none_or(|at| meta.count <= at);
            if live {
                fold(&meta, &mut record)?;
            }
            Ok(live.then_some(meta.count))
        });
        match step {
            Ok(next) => {
                record.end()?;
                let Some(next) = next else {
                    break;
                };
                count = next;
            }
            Err(e) => return Err(record.fail(e)),
        }
        seq += 1;
    }
    Ok(count)
}

/// The fold: the one place a stored chain becomes a state. `bases` yields
/// the chain's base record body per retained generation, newest first, its
/// CRC verified — it becomes the restore's one record-sized buffer.
/// [`walk_chain`] streams each live delta into it, every payload read
/// straight into its place ([`Merged::apply`]): no delta is ever held
/// whole. The first generation to land on a pinned `at` is returned, and an
/// unpinned fold takes the first one present; `Ok(None)` when the chain has
/// no base record. A pinned fold also looks past a generation that is
/// corrupt (its base or a live delta fails its CRC or its layout rules),
/// since an older one may still hold the pinned, group-committed safe
/// point; an I/O error ends it, as does any error of an unpinned fold. When
/// no generation serves the pin, the error names what each one tried gave.
/// The caller owns the result: a read *lends* it, a disk restart *keeps* it
/// from store open until the load installs it, so its chain is read once.
/// On `Err` a half-patched record is dropped with the fold.
fn fold_merged<'s>(
    rank: Option<u32>,
    at: Option<u64>,
    bases: impl IntoIterator<Item = Result<Option<Vec<u8>>>>,
    mut delta: impl FnMut(u32) -> Result<Option<Opened<'s>>>,
) -> Result<Option<Merged>> {
    let mut tried = Vec::new();
    for base in bases {
        let generation = base.and_then(|base| {
            let Some(base) = base else {
                return Ok(None);
            };
            let mut merged = Merged::of_base(base)?;
            let count = walk_chain(merged.count(), at, &mut delta, |meta, r| {
                merged.apply(meta, r)
            })?;
            Ok(Some((merged, count)))
        });
        match generation {
            Ok(None) => {}
            Ok(Some((merged, count))) if at.is_none_or(|at| count == at) => {
                return Ok(Some(merged))
            }
            Ok(Some((_, count))) => tried.push(format!("reaches safe point {count}")),
            Err(PparError::CorruptCheckpoint(why)) if at.is_some() => tried.push(why),
            Err(e) => return Err(e),
        }
    }
    match at {
        Some(count) if !tried.is_empty() => Err(unserved(rank, count, &tried)),
        _ => Ok(None),
    }
}

/// The error of a pin at `at` that no generation of `rank`'s chain serves;
/// `tried` says what each generation gave, newest first.
pub(crate) fn unserved(rank: Option<u32>, at: u64, tried: &[String]) -> PparError {
    PparError::CorruptCheckpoint(format!(
        "no generation of the {rank:?} chain can serve safe point {at} \
         (newest first: {tried:?}; torn group checkpoint)"
    ))
}

/// A checkpoint directory.
///
/// Two persistence layouts share one directory format:
///
/// * **flat** (the default, byte-compatible with every earlier release) —
///   each record is one file, rewritten whole on every save;
/// * **content-addressed** ([`crate::cas`]) — records are manifests over
///   deduplicated chunk objects, so a steady-state snapshot whose pages
///   mostly didn't change costs ~metadata instead of ~data.
///
/// Selection: creating the directory with [`CheckpointStore::new_cas`]
/// opts it into the content-addressed layout; [`CheckpointStore::new`]
/// detects a directory that already holds one and reopens it as such, so a
/// launch given a pre-created directory uses its layout. Either way the
/// records read back bitwise-identical — both layouts store the same
/// golden record encoding — and a content-addressed store still *reads*
/// legacy flat files, so old run directories restore unchanged.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// `Some` when this directory uses the content-addressed layout.
    cas: Option<crate::cas::CasStore>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory: content-addressed
    /// when the directory already holds a content-addressed store, flat
    /// otherwise.
    pub fn new(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        if crate::cas::CasStore::detect(dir.as_ref()) {
            CheckpointStore::new_cas(dir)
        } else {
            CheckpointStore::new_flat(dir)
        }
    }

    /// Open a checkpoint directory in the legacy flat layout, whatever it
    /// already holds.
    pub fn new_flat(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(CheckpointStore {
            dir: dir.as_ref().to_path_buf(),
            cas: None,
        })
    }

    /// Open a checkpoint directory in the content-addressed layout with
    /// the default [`crate::cas::CasConfig`].
    pub fn new_cas(dir: impl AsRef<Path>) -> Result<CheckpointStore> {
        CheckpointStore::new_cas_with(dir, crate::cas::CasConfig::default())
    }

    /// [`CheckpointStore::new_cas`] with an explicit configuration.
    pub fn new_cas_with(
        dir: impl AsRef<Path>,
        cfg: crate::cas::CasConfig,
    ) -> Result<CheckpointStore> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(CheckpointStore {
            dir: dir.as_ref().to_path_buf(),
            cas: Some(crate::cas::CasStore::open_with(dir.as_ref(), cfg)?),
        })
    }

    /// The content-addressed store backing this directory, when the CAS
    /// layout is active (GC and dedup-stat access for benches and tools).
    pub fn cas(&self) -> Option<&crate::cas::CasStore> {
        self.cas.as_ref()
    }

    /// The directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    // ---- record seam: every read/rename/peek goes record-level so the
    // content-addressed layout (manifest first, flat file fallback for
    // legacy directories) and the flat layout share one code path ----

    fn rec_name(path: &Path) -> &str {
        path.file_name()
            .map(|n| n.to_str().expect("record names are ASCII"))
            .expect("record paths always carry a file name")
    }

    /// Open the record for one front-to-back read: its length and its
    /// bytes — a content-addressed record's chunk objects in manifest
    /// order, a flat file otherwise; `None` when absent under both layouts.
    /// Buffered by the block, so the many small reads of a header or a
    /// sparse delta's ranges cost one read call per block, while block-sized
    /// reads bypass the buffer (see [`RecordStream`]'s `fill`). Positioned
    /// access rides along for the split: a second reader of the chunk
    /// objects, or a second handle on the file.
    fn record_reader(&self, path: &Path) -> Result<Option<Opened<'_>>> {
        if let Some(cas) = &self.cas {
            if let Some(chunks) = cas.record_reader(CheckpointStore::rec_name(path))? {
                let at: Box<dyn ReadAt> = Box::new(chunks.at(0)?);
                let len = chunks.record_len();
                return Ok(Some((len, OnDisk::new(Box::new(chunks), Some(at)))));
            }
        }
        match fs::File::open(path) {
            Ok(file) => {
                #[cfg(unix)]
                let at: Option<Box<dyn ReadAt>> = Some(Box::new(file.try_clone()?));
                #[cfg(not(unix))]
                let at = None;
                let len = file.metadata()?.len();
                Ok(Some((len, OnDisk::new(Box::new(file), at))))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// `rank`'s chain read, CRC-checked and folded, pinned like
    /// [`CkptTransport::with_merged`], which lends this. Each record is read
    /// once: the base into the fold's one buffer, every delta's payload
    /// into its place in it. A shard keeps the generation the group last
    /// committed beside the current one; a pinned read falls back to
    /// it, which is how a restore survives a torn group save — shards that
    /// already advanced past the commit point roll back to their preserved
    /// older record.
    pub(crate) fn merged(&self, rank: Option<u32>, at: Option<u64>) -> Result<Option<Merged>> {
        let prev = at.and(rank).map(|r| self.prev_shard_path(r));
        let bases = std::iter::once(self.record_path(RecordKey::full(rank)))
            .chain(prev)
            .map(|path| match self.record_reader(&path)? {
                Some((len, src)) => RecordStream::new(src, len, "")?.into_body().map(Some),
                None => Ok(None),
            });
        fold_merged(rank, at, bases, self.deltas(rank))
    }

    /// How the chain walks reach `rank`'s deltas (see [`walk_chain`]):
    /// delta `seq` opened for reading where it lies.
    fn deltas<'s>(&'s self, rank: Option<u32>) -> impl FnMut(u32) -> Result<Option<Opened<'s>>> {
        move |seq| self.record_reader(&self.delta_path(rank, seq))
    }

    fn record_exists(&self, path: &Path) -> bool {
        if let Some(cas) = &self.cas {
            if cas.manifest_exists(CheckpointStore::rec_name(path)) {
                return true;
            }
        }
        path.exists()
    }

    /// Rename a record (manifest-level in the content-addressed layout;
    /// legacy flat files rename as files).
    fn record_rename(&self, from: &Path, to: &Path) -> Result<()> {
        if let Some(cas) = &self.cas {
            let from_name = CheckpointStore::rec_name(from);
            if cas.manifest_exists(from_name) {
                cas.rename_manifest(from_name, CheckpointStore::rec_name(to))?;
                // Stale flat files under either name are superseded by the
                // manifest that just moved (reads prefer manifests, but the
                // source name no longer has one to shadow its leftover).
                CheckpointStore::remove_if_present(to.to_path_buf())?;
                CheckpointStore::remove_if_present(from.to_path_buf())?;
                return Ok(());
            }
        }
        fs::rename(from, to)?;
        Ok(())
    }

    /// The step before a flat commit drops the record name `path`: give
    /// the file there the spare name `spare`, into `gone`. Nothing to do
    /// when `path` names no file. The file is left to be freed inline —
    /// as the step drops its last name — when the layout is
    /// content-addressed, the spare name is taken or the link fails.
    fn spare(&self, path: &Path, spare: PathBuf, gone: &mut Superseded) {
        if self.cas.is_none() && fs::hard_link(path, &spare).is_ok() {
            gone.spares.push(spare);
        }
    }

    /// Copy a record's encoded bytes straight into `out` (the raw
    /// streaming restore path); `None` when absent.
    fn record_copy_to(&self, path: &Path, out: &mut dyn Write) -> Result<Option<u64>> {
        if let Some(cas) = &self.cas {
            if let Some(mut chunks) = cas.record_reader(CheckpointStore::rec_name(path))? {
                return Ok(Some(std::io::copy(&mut chunks, out)?));
            }
        }
        let mut file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(std::io::copy(&mut file, out)?))
    }

    fn master_path(&self) -> PathBuf {
        self.dir.join("ckpt_master.bin")
    }

    fn shard_path(&self, rank: u32) -> PathBuf {
        self.dir.join(format!("ckpt_rank_{rank}.bin"))
    }

    /// The retained previous generation of a shard. Shard writes rotate the
    /// committed generation here instead of overwriting it, so a save torn
    /// by a rank death (some shards already advanced, the dying rank's did
    /// not) can still restore the whole group at the last *commit* point.
    fn prev_shard_path(&self, rank: u32) -> PathBuf {
        self.dir.join(format!("ckpt_rank_{rank}_prev.bin"))
    }

    fn commit_path(&self) -> PathBuf {
        self.dir.join("ckpt_commit")
    }

    fn marker_path(&self) -> PathBuf {
        self.dir.join("RUNNING")
    }

    fn delta_path(&self, rank: Option<u32>, seq: u32) -> PathBuf {
        match rank {
            None => self.dir.join(format!("ckpt_master_delta_{seq}.bin")),
            Some(r) => self.dir.join(format!("ckpt_rank_{r}_delta_{seq}.bin")),
        }
    }

    fn record_path(&self, key: RecordKey) -> PathBuf {
        match (key.rank, key.delta) {
            (None, None) => self.master_path(),
            (Some(rank), None) => self.shard_path(rank),
            (rank, Some(seq)) => self.delta_path(rank, seq),
        }
    }

    /// Peek the safe-point count in a record's header without materializing
    /// the payload. `None` when the record is missing or its header does
    /// not parse (a peek never hard-fails: the caller falls back to the
    /// full, CRC-checked read path). Reads the record's head through the
    /// record reader, whichever the layout.
    fn peek_count(&self, path: &Path) -> Option<u64> {
        let (_, src) = self.record_reader(path).ok()??;
        let mut head = Vec::with_capacity(HEAD_BYTES);
        src.take(HEAD_BYTES as u64).read_to_end(&mut head).ok()?;
        SnapshotMeta::of_head(&head).ok().map(|meta| meta.count)
    }

    /// Does a commit of `key` rotate its shard's record to `_prev`,
    /// evicting what `_prev` held? Never for a master record. A shard's
    /// does unless the record has diverged from the group-commit point:
    /// then `_prev` still holds the committed generation and must survive
    /// (a torn save retried after recovery must not evict the only
    /// restorable record). With no commit point yet, one generation of
    /// history is still better than none.
    fn rotates(&self, key: RecordKey) -> Result<bool> {
        let Some(rank) = key.rank.filter(|_| key.delta.is_none()) else {
            return Ok(false);
        };
        let dst = self.shard_path(rank);
        if !self.record_exists(&dst) {
            return Ok(false);
        }
        Ok(match self.committed_count()? {
            Some(c) => self.peek_count(&dst) == Some(c),
            None => true,
        })
    }

    /// The step of both commit sequences that comes just before the new
    /// record takes its final name. Only a shard's record has anything to
    /// do: preserve the committed generation of that shard before the new
    /// one replaces it — rotate `dst → prev` when `rotates`, the answer of
    /// [`CheckpointStore::rotates`]: a flat sink asked at begin, when it
    /// claimed the `_prev` this evicts; a content-addressed one asks at
    /// commit.
    fn rotate_generation(&self, key: RecordKey, rotates: bool) -> Result<()> {
        match key.rank {
            Some(rank) if rotates => {
                self.record_rename(&self.shard_path(rank), &self.prev_shard_path(rank))
            }
            _ => Ok(()),
        }
    }

    /// The step of both commit sequences that comes just after a new
    /// master base took its final name: delete every delta of the master
    /// chain (no shard grows one). Sweeps any extension but `.spare`, so an
    /// orphaned temp file from a crash mid-delta-write is collected too. A
    /// crash before the sweep leaves stale deltas that the fold ignores
    /// (their `base_count` names the old base), never a broken restore.
    /// Each delta it retires keeps its own spare name, into `gone`, for the
    /// next chain's delta of that `seq`.
    fn retire_chain(&self, key: RecordKey, gone: &mut Superseded) -> Result<()> {
        if key != RecordKey::full(None) {
            return Ok(());
        }
        let matches = |name: &str| name.starts_with("ckpt_master_delta_") && !name.ends_with(SPARE);
        self.remove_records(matches, Some(gone))
    }

    /// Fresh-run hygiene, run by [`crate::CheckpointModule::create_group`]
    /// before a run that is not replaying: a previous generation's leftover
    /// chain could carry a `base_count` that collides with the counts this
    /// run will produce, so every delta goes, and every delta spare.
    pub(crate) fn purge_deltas(&self) -> Result<()> {
        let matches = |name: &str| name.starts_with("ckpt_") && name.contains("_delta_");
        self.remove_records(matches, None)
    }

    /// Advance the group-commit point (atomically) to safe point `count`:
    /// every shard of the group is durable there (the engine's post-save
    /// barrier has completed). A pinned shard read falls back to the
    /// generation kept at this point.
    pub fn commit_group(&self, count: u64) -> Result<()> {
        let tmp = self.commit_path().with_extension("tmp");
        fs::write(&tmp, count.to_le_bytes())?;
        fs::rename(&tmp, self.commit_path())?;
        Ok(())
    }

    /// The group-commit point: the newest safe point at which *every* shard
    /// of the group is durable. `None` before the first commit.
    pub fn committed_count(&self) -> Result<Option<u64>> {
        match fs::read(self.commit_path()) {
            Ok(bytes) => {
                let arr: [u8; 8] = bytes.as_slice().try_into().map_err(|_| {
                    PparError::CorruptCheckpoint(format!(
                        "group-commit record holds {} bytes, expected 8",
                        bytes.len()
                    ))
                })?;
                Ok(Some(u64::from_le_bytes(arr)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    // Tolerate a concurrent remover (several modules of one group purging
    // at start-up): losing the race to delete is success.
    fn remove_if_present(path: PathBuf) -> Result<()> {
        match fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Delete every record — flat file or manifest — whose name `matches`.
    /// With `gone`, each flat record file (not a temp file) keeps its own
    /// spare name first.
    fn remove_records(
        &self,
        matches: impl Fn(&str) -> bool,
        mut gone: Option<&mut Superseded>,
    ) -> Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if matches(&name) {
                let path = entry.path();
                if let (Some(gone), true) = (gone.as_deref_mut(), name.ends_with(".bin")) {
                    self.spare(&path, spare_path(&path), gone);
                }
                CheckpointStore::remove_if_present(path)?;
            }
        }
        if let Some(cas) = &self.cas {
            for name in cas.list_manifests()? {
                if matches(&name) {
                    cas.remove_manifest(&name)?;
                }
            }
        }
        Ok(())
    }

    /// Mark a run as in flight. Idempotent (all aggregate elements call it).
    pub fn set_marker(&self) -> Result<()> {
        fs::write(self.marker_path(), b"running")?;
        Ok(())
    }

    /// Is a run marked as in flight?
    pub fn marker_exists(&self) -> bool {
        self.marker_path().exists()
    }

    /// Clear the in-flight marker (normal completion).
    pub fn clear_marker(&self) -> Result<()> {
        match fs::remove_file(self.marker_path()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Remove all snapshots, their spares and the marker (fresh directory
    /// for a new experiment).
    pub fn clear_all(&self) -> Result<()> {
        let matches = |name: &str| name == "RUNNING" || name.starts_with("ckpt_");
        self.remove_records(matches, None)?;
        if let Some(cas) = &self.cas {
            // Orphaned chunk objects are reclaimed eagerly: a cleared
            // directory should not keep paying for dead generations.
            cas.gc()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::SPLIT_PART;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ppar_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample(rank: Option<u32>) -> Snapshot {
        Snapshot {
            mode_tag: "smp4".to_string(),
            count: 123,
            rank,
            nranks: 8,
            fields: vec![
                ("G".to_string(), vec![1, 2, 3, 4]),
                ("energy".to_string(), 42.0f64.to_le_bytes().to_vec()),
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rank in [None, Some(0), Some(31)] {
            let s = sample(rank);
            let decoded = Snapshot::decode(&s.encode()).unwrap();
            assert_eq!(decoded, s);
        }
    }

    #[test]
    fn field_lookup_and_payload_size() {
        let s = sample(None);
        assert_eq!(s.field("G"), Some(&[1u8, 2, 3, 4][..]));
        assert!(s.field("missing").is_none());
        assert_eq!(s.payload_bytes(), 12);
    }

    #[test]
    fn corruption_detected() {
        let s = sample(None);
        let mut bytes = s.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match Snapshot::decode(&bytes) {
            Err(PparError::CorruptCheckpoint(msg)) => assert!(msg.contains("CRC")),
            other => panic!("expected CRC error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let s = sample(None);
        let bytes = s.encode();
        assert!(Snapshot::decode(&bytes[..bytes.len() - 9]).is_err());
        assert!(Snapshot::decode(&bytes[..3]).is_err());
    }

    #[test]
    fn bad_magic_reports_format_mismatch() {
        let s = sample(None);
        let mut bytes = s.encode();
        bytes[0] = b'X';
        // fix up CRC so we reach the magic check
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(PparError::FormatMismatch { .. })
        ));
    }

    /// A master base commit retires the master chain and nothing else, in
    /// both layouts; a shard base and a delta commit retire nothing. A
    /// shard chain only an older release wrote (put here as its files) is
    /// left where it is: the new base's count is not its `base_count`.
    #[test]
    fn a_base_commit_retires_only_its_own_chain() {
        for cas in [false, true] {
            let dir = tmpdir(&format!("retire_{cas}"));
            let store = match cas {
                false => CheckpointStore::new_flat(&dir).unwrap(),
                true => CheckpointStore::new_cas(&dir).unwrap(),
            };
            for rank in [None, Some(1), Some(10)] {
                let mut base = sample(rank);
                base.count = 5;
                put_snapshot(&store, &base);
                for seq in 1..=2 {
                    let dm = DeltaMeta {
                        nranks: 8,
                        ..delta_meta(5 + seq as u64, 5, seq, rank)
                    };
                    let whole = DeltaSource::Full(FieldSource::Bytes(&[seq as u8; 4]));
                    let record = Record::Delta(&dm, &[("G", whole)]);
                    match rank {
                        None => drop(store.put(&record).unwrap()),
                        Some(_) => legacy_delta(&store, &record),
                    }
                }
            }
            let tip = |rank| store.get(rank, None).unwrap().unwrap().count;
            assert_eq!([tip(None), tip(Some(1)), tip(Some(10))], [7, 7, 7]);

            let mut base = sample(Some(1));
            base.count = 9;
            put_snapshot(&store, &base);
            assert_eq!(store.get(Some(1), None).unwrap().unwrap(), base);
            assert!(store.record_exists(&store.delta_path(Some(1), 2)));
            assert_eq!([tip(None), tip(Some(10))], [7, 7], "no chain retired");

            let mut base = sample(None);
            base.count = 9;
            put_snapshot(&store, &base);
            assert_eq!(store.get(None, None).unwrap().unwrap(), base);
            assert!(!store.record_exists(&store.delta_path(None, 1)));
            assert!(!store.record_exists(&store.delta_path(None, 2)));
            assert_eq!(tip(Some(10)), 7, "shard chains keep theirs");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Write `record`, a shard delta, where an older release put its file:
    /// no sink of this one takes a shard delta key.
    fn legacy_delta(store: &CheckpointStore, record: &Record<'_>) {
        let (_, bytes) = record.encode(Vec::new()).unwrap();
        fs::write(store.record_path(record.key()), bytes).unwrap();
    }

    /// Every file under `dir`, at any depth, with its contents.
    fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            match path.is_dir() {
                true => files.extend(tree(&path)),
                false => files.push((path.clone(), fs::read(&path).unwrap())),
            }
        }
        files.sort();
        files
    }

    /// A shard grows no chain: `begin` refuses a shard delta key with
    /// `InvalidPlan` in both layouts, and the directory is left as it was
    /// — byte for byte, the content-addressed store's objects and journal
    /// included. So does a `put` of a shard delta record.
    #[test]
    fn a_shard_delta_key_is_refused_and_changes_nothing() {
        for cas in [false, true] {
            let dir = tmpdir(&format!("shard_delta_refused_{cas}"));
            let store = match cas {
                false => CheckpointStore::new_flat(&dir).unwrap(),
                true => CheckpointStore::new_cas(&dir).unwrap(),
            };
            let mut base = sample(Some(1));
            base.count = 5;
            put_snapshot(&store, &base);
            let before = tree(&dir);
            assert!(
                matches!(
                    store.begin(RecordKey::delta(Some(1), 1), 64),
                    Err(PparError::InvalidPlan(_))
                ),
                "cas={cas}"
            );
            let dm = DeltaMeta {
                nranks: 8,
                ..delta_meta(6, 5, 1, Some(1))
            };
            let whole = DeltaSource::Full(FieldSource::Bytes(&[1; 4]));
            let put = store.put(&Record::Delta(&dm, &[("G", whole)]));
            assert!(matches!(put, Err(PparError::InvalidPlan(_))), "cas={cas}");
            assert!(tree(&dir) == before, "cas={cas}: the directory changed");
            assert_eq!(store.get(Some(1), None).unwrap().unwrap(), base);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The names in `dir`, sorted, and those of them that are spares.
    fn names(dir: &Path) -> (Vec<String>, Vec<String>) {
        let mut all: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        all.sort();
        let spares = all.iter().filter(|n| n.ends_with(SPARE)).cloned().collect();
        (all, spares)
    }

    /// A record through the sink, its commit's [`Superseded`] returned.
    fn commit(store: &CheckpointStore, record: &Record<'_>) -> Superseded {
        let committed =
            crate::transport::commit_record(store, record, |sink| record.encode(sink).map(drop));
        committed.unwrap().0
    }

    #[cfg(unix)]
    fn ino(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(path).unwrap().ino()
    }

    /// Keeping what a commit superseded changes no record name. One script
    /// of commits — a base renamed over, a delta chain, shard bases whose
    /// sinks claim the `_prev` their rotation evicts at a group commit, a
    /// base retiring the chain, a new chain over the spares, a shard whose
    /// record outran the commit point (no rotation: its record becomes a
    /// spare) — leaves the same record names after every step whether each
    /// commit's [`Superseded`] drops at once (a direct `put`) or is kept, in
    /// both layouts. Kept, a flat commit leaves exactly the spares of what
    /// it superseded, and the next commit of each name claims its spare;
    /// dropped, none is left. The content-addressed layout spares nothing.
    #[test]
    fn a_kept_commit_leaves_the_record_names_of_a_dropped_one_and_only_spares_besides() {
        enum Step {
            Base(Snapshot),
            Delta(u64, u64, u32),
        }
        for cas in [false, true] {
            let open = |tag: &str| {
                let dir = tmpdir(&format!("{tag}_{cas}"));
                let store = match cas {
                    false => CheckpointStore::new_flat(&dir).unwrap(),
                    true => CheckpointStore::new_cas(&dir).unwrap(),
                };
                (store, dir)
            };
            let (dropped, dropped_dir) = open("spare_dropped");
            let (kept, kept_dir) = open("spare_kept");
            let full = |rank, count| Snapshot {
                count,
                ..sample(rank)
            };
            const M: &str = "ckpt_master.bin.spare";
            const R: &str = "ckpt_rank_0.bin.spare";
            const D1: &str = "ckpt_master_delta_1.bin.spare";
            const D2: &str = "ckpt_master_delta_2.bin.spare";
            // (what to commit, the group commit made first, the spares a
            // flat store keeps after it).
            let script: Vec<(Step, Option<u64>, &[&str])> = vec![
                (Step::Base(full(None, 1)), None, &[]),
                (Step::Base(full(None, 2)), None, &[M]),
                (Step::Delta(3, 2, 1), None, &[M]),
                (Step::Delta(4, 2, 2), None, &[M]),
                (Step::Base(full(Some(0), 4)), None, &[M]),
                (Step::Base(full(Some(0), 5)), Some(4), &[M]),
                (Step::Base(full(Some(0), 6)), Some(5), &[M]),
                (Step::Base(full(None, 6)), None, &[M, D1, D2]),
                (Step::Delta(7, 6, 1), None, &[M, D2]),
                (Step::Base(full(Some(0), 7)), Some(6), &[M, D2]),
                (Step::Base(full(Some(0), 8)), None, &[M, D2, R]),
                (Step::Base(full(Some(0), 9)), Some(8), &[M, D2, R]),
            ];
            for (step, (record, commit_at, spares)) in script.into_iter().enumerate() {
                if let Some(count) = commit_at {
                    dropped.commit_group(count).unwrap();
                    kept.commit_group(count).unwrap();
                }
                let superseded = match &record {
                    Step::Base(snap) => {
                        put_snapshot(&dropped, snap);
                        commit(&kept, &Record::Full(&snap.meta(), &bytes_fields(snap)))
                    }
                    Step::Delta(count, base, seq) => {
                        let dm = DeltaMeta {
                            nranks: 8,
                            ..delta_meta(*count, *base, *seq, None)
                        };
                        let payload = [*seq as u8; 4];
                        let whole = DeltaSource::Full(FieldSource::Bytes(&payload));
                        let record = Record::Delta(&dm, &[("G", whole)]);
                        dropped.put(&record).unwrap();
                        commit(&kept, &record)
                    }
                };
                for spare in &superseded.spares {
                    assert!(spare.exists(), "cas={cas} step {step}: {spare:?}");
                }
                superseded.keep();
                let want: &[&str] = if cas { &[] } else { spares };
                let (all, left) = names(&kept_dir);
                assert_eq!(left, want, "cas={cas} step {step}");
                let records: Vec<_> = all.into_iter().filter(|n| !n.ends_with(SPARE)).collect();
                let (dropped_all, dropped_spares) = names(&dropped_dir);
                assert_eq!(records, dropped_all, "cas={cas} step {step}");
                assert!(dropped_spares.is_empty(), "cas={cas} step {step}");
            }
            for rank in [None, Some(0)] {
                assert_eq!(
                    kept.get(rank, None).unwrap(),
                    dropped.get(rank, None).unwrap()
                );
            }
            assert_eq!(
                kept.get(Some(0), Some(8)).unwrap(),
                dropped.get(Some(0), Some(8)).unwrap()
            );
            fs::remove_dir_all(&dropped_dir).unwrap();
            fs::remove_dir_all(&kept_dir).unwrap();
        }
    }

    /// A garbage spare longer than the record is claimed — the record is
    /// written into that very file — and trimmed at commit: the record
    /// reads back bitwise and CRC-verified.
    #[test]
    fn a_longer_garbage_spare_is_claimed_and_trimmed() {
        let dir = tmpdir("spare_garbage");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let snap = sample(None);
        let spare = dir.join("ckpt_master.bin.spare");
        fs::write(&spare, vec![0xA5; 3 * snap.encode().len() + 4096]).unwrap();
        #[cfg(unix)]
        let claimed = ino(&spare);
        commit(&store, &Record::Full(&snap.meta(), &bytes_fields(&snap))).keep();
        let record = dir.join("ckpt_master.bin");
        #[cfg(unix)]
        assert_eq!(ino(&record), claimed, "the spare was not claimed");
        assert_eq!(fs::read(&record).unwrap(), snap.encode());
        assert_eq!(store.get(None, None).unwrap().unwrap(), snap);
        assert_eq!(names(&dir).0, ["ckpt_master.bin"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A claimed spare of any length becomes exactly the record: shorter
    /// (the record grows it), of equal length (left untrimmed) or longer
    /// (trimmed), the published file is the claimed inode and holds the
    /// golden encoding, byte for byte and no byte more, which restores the
    /// state. A fresh file, which no commit trims, holds exactly the record
    /// too.
    #[cfg(unix)]
    #[test]
    fn a_claimed_spare_of_any_length_becomes_exactly_the_record() {
        let snap = sample(None);
        let golden = snap.encode();
        let len = golden.len();
        let cases = [
            ("fresh", None),
            ("shorter", Some(len / 2)),
            ("equal", Some(len)),
            ("longer", Some(2 * len + 4096)),
        ];
        for (tag, spare_len) in cases {
            let dir = tmpdir(&format!("spare_len_{tag}"));
            let store = CheckpointStore::new_flat(&dir).unwrap();
            let spare = dir.join("ckpt_master.bin.spare");
            let claimed = spare_len.map(|n| {
                fs::write(&spare, vec![0xA5; n]).unwrap();
                ino(&spare)
            });
            commit(&store, &Record::Full(&snap.meta(), &bytes_fields(&snap))).keep();
            let record = dir.join("ckpt_master.bin");
            assert_eq!(fs::read(&record).unwrap(), golden, "{tag}");
            assert_eq!(fs::metadata(&record).unwrap().len(), len as u64, "{tag}");
            if let Some(claimed) = claimed {
                assert_eq!(ino(&record), claimed, "{tag}: the spare was not claimed");
            }
            assert_eq!(store.get(None, None).unwrap().unwrap(), snap, "{tag}");
            assert_eq!(names(&dir).0, ["ckpt_master.bin"], "{tag}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A sink that claimed a spare and is then aborted, or dropped
    /// mid-stream, leaves the committed record readable and neither its
    /// temp file nor the spare behind.
    #[test]
    fn an_abandoned_sink_that_claimed_a_spare_leaves_only_the_record() {
        let dir = tmpdir("spare_abandoned");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let snap = |count| Snapshot {
            count,
            ..sample(None)
        };
        put_snapshot(&store, &snap(1));
        for abort in [true, false] {
            let last = snap(2);
            commit(&store, &Record::Full(&last.meta(), &bytes_fields(&last))).keep();
            assert_eq!(names(&dir).1, ["ckpt_master.bin.spare"]);
            let next = snap(3);
            let mut sink = store.begin(RecordKey::full(None), 0).unwrap();
            assert!(names(&dir).1.is_empty(), "the sink claimed the spare");
            let bytes = next.encode();
            sink.write_all(&bytes[..bytes.len() / 2]).unwrap();
            match abort {
                true => sink.abort("test"),
                false => drop(sink),
            }
            assert_eq!(names(&dir).0, ["ckpt_master.bin"], "abort={abort}");
            assert_eq!(store.get(None, None).unwrap().unwrap(), last);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A cut between a commit's link and its rename leaves a spare that is
    /// also the live record. The next sink claims it but never writes into
    /// it: abandoned mid-stream, it leaves that record intact.
    #[test]
    fn a_spare_that_is_still_a_record_is_never_rewritten() {
        let dir = tmpdir("spare_linked");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let snap = |count| Snapshot {
            count,
            ..sample(None)
        };
        put_snapshot(&store, &snap(1));
        let record = dir.join("ckpt_master.bin");
        fs::hard_link(&record, dir.join("ckpt_master.bin.spare")).unwrap();
        let mut sink = store.begin(RecordKey::full(None), 0).unwrap();
        sink.write_all(&vec![0xA5; snap(2).encode().len()]).unwrap();
        sink.flush().unwrap();
        drop(sink);
        assert_eq!(store.get(None, None).unwrap().unwrap(), snap(1));
        assert_eq!(names(&dir).0, ["ckpt_master.bin"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A base's retirement of its chain leaves every spare where it is and
    /// sweeps the chain's orphaned temp files; the fresh-run purge sweeps
    /// delta spares, and clearing the directory sweeps every spare.
    #[test]
    fn spares_survive_a_chains_retirement_and_go_with_a_purge_or_a_clear() {
        let dir = tmpdir("spare_sweeps");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let base = |count| {
            let snap = Snapshot {
                count,
                ..sample(None)
            };
            commit(&store, &Record::Full(&snap.meta(), &bytes_fields(&snap))).keep();
        };
        let delta = |count, base_count, seq: u32| {
            let dm = DeltaMeta {
                nranks: 8,
                ..delta_meta(count, base_count, seq, None)
            };
            let whole = DeltaSource::Full(FieldSource::Bytes(&[seq as u8; 4]));
            commit(&store, &Record::Delta(&dm, &[("G", whole)])).keep();
        };
        base(1);
        delta(2, 1, 1);
        delta(3, 1, 2);
        base(4);
        let d2 = dir.join("ckpt_master_delta_2.bin.spare");
        let old_d2 = fs::read(&d2).unwrap();
        // A chain one delta shorter: the spare of delta 2 is not claimed,
        // and the next retirement must leave it alone.
        delta(5, 4, 1);
        fs::write(dir.join("ckpt_master_delta_2.tmp99"), b"orphan").unwrap();
        base(6);
        let spares = [
            "ckpt_master.bin.spare",
            "ckpt_master_delta_1.bin.spare",
            "ckpt_master_delta_2.bin.spare",
        ];
        assert_eq!(names(&dir).1, spares);
        assert_eq!(fs::read(&d2).unwrap(), old_d2);
        assert_eq!(names(&dir).0.len(), spares.len() + 1, "{:?}", names(&dir));

        store.purge_deltas().unwrap();
        assert_eq!(names(&dir).1, ["ckpt_master.bin.spare"]);
        store.clear_all().unwrap();
        assert!(names(&dir).0.is_empty(), "{:?}", names(&dir));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A step that cannot take its spare name frees the file inline, as a
    /// store without spares does: when a file holds the name, and when the
    /// link fails (a directory holds it). What holds the name is left as
    /// it was, and every record name is what it would be.
    #[test]
    fn a_taken_spare_name_or_a_failed_link_frees_inline() {
        let dir = tmpdir("spare_taken");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let snap = |count| Snapshot {
            count,
            ..sample(None)
        };
        put_snapshot(&store, &snap(1));
        for seq in 1..=2 {
            let dm = DeltaMeta {
                nranks: 8,
                ..delta_meta(1 + seq as u64, 1, seq, None)
            };
            let whole = DeltaSource::Full(FieldSource::Bytes(&[seq as u8; 4]));
            store.put(&Record::Delta(&dm, &[("G", whole)])).unwrap();
        }
        // Taken once the sink has looked for its spare: the record renamed
        // over, delta 1 (by a file) and delta 2 (by a directory).
        let next = snap(4);
        let record = Record::Full(&next.meta(), &bytes_fields(&next));
        let mut sink = store.begin(record.key(), 0).unwrap();
        record.encode(&mut *sink).unwrap();
        fs::write(dir.join("ckpt_master.bin.spare"), b"taken").unwrap();
        fs::write(dir.join("ckpt_master_delta_1.bin.spare"), b"taken").unwrap();
        fs::create_dir(dir.join("ckpt_master_delta_2.bin.spare")).unwrap();
        let superseded = sink.commit().unwrap();
        assert!(superseded.spares.is_empty(), "{:?}", superseded.spares);
        superseded.keep();
        let (all, _) = names(&dir);
        assert_eq!(
            all,
            [
                "ckpt_master.bin",
                "ckpt_master.bin.spare",
                "ckpt_master_delta_1.bin.spare",
                "ckpt_master_delta_2.bin.spare",
            ]
        );
        assert_eq!(
            fs::read(dir.join("ckpt_master.bin.spare")).unwrap(),
            b"taken"
        );
        assert_eq!(
            fs::read(dir.join("ckpt_master_delta_1.bin.spare")).unwrap(),
            b"taken"
        );
        assert_eq!(store.get(None, None).unwrap().unwrap(), next);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn marker_lifecycle() {
        let dir = tmpdir("marker");
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(!store.marker_exists());
        store.set_marker().unwrap();
        store.set_marker().unwrap(); // idempotent
        assert!(store.marker_exists());
        store.clear_marker().unwrap();
        store.clear_marker().unwrap(); // idempotent
        assert!(!store.marker_exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_all_removes_artifacts() {
        let dir = tmpdir("clear");
        let store = CheckpointStore::new(&dir).unwrap();
        store.set_marker().unwrap();
        put_snapshot(&store, &sample(None));
        put_snapshot(&store, &sample(Some(1)));
        store.clear_all().unwrap();
        assert!(!store.marker_exists());
        assert!(store.get(None, None).unwrap().is_none());
        assert!(store.get(Some(1), None).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    // ---- streaming writer ----

    use ppar_core::shared::SharedVec;
    use ppar_core::state::StateCell;

    fn bytes_fields(snap: &Snapshot) -> Vec<(&str, FieldSource<'_>)> {
        snap.fields
            .iter()
            .map(|(n, b)| (n.as_str(), FieldSource::Bytes(b)))
            .collect()
    }

    fn put_snapshot(store: &CheckpointStore, snap: &Snapshot) -> u64 {
        store
            .put(&Record::Full(&snap.meta(), &bytes_fields(snap)))
            .unwrap()
    }

    /// The golden-bytes guarantee: for identical content, the streaming
    /// writer's file is byte-for-byte the legacy materialized encoding.
    #[test]
    fn golden_bytes_streaming_equals_legacy_encode() {
        let dir = tmpdir("golden");
        let store = CheckpointStore::new(&dir).unwrap();
        let cases = vec![
            sample(None),
            sample(Some(3)),
            // Edge: snapshot with no fields at all.
            Snapshot {
                mode_tag: "seq".into(),
                count: 0,
                rank: None,
                nranks: 1,
                fields: vec![],
            },
            // Edge: empty payload and empty name.
            Snapshot {
                mode_tag: String::new(),
                count: u64::MAX,
                rank: Some(0),
                nranks: 1,
                fields: vec![("empty".into(), vec![]), (String::new(), vec![7])],
            },
            // A payload the writer checksums on a helper thread, of odd
            // length, between small fields.
            Snapshot {
                mode_tag: "smp2".into(),
                count: 5,
                rank: None,
                nranks: 2,
                fields: vec![
                    ("head".into(), vec![1, 2, 3]),
                    ("big".into(), helper_sized_bytes()),
                    ("tail".into(), vec![9; 5]),
                ],
            },
        ];
        for (case, snap) in cases.into_iter().enumerate() {
            let golden = snap.encode();
            let written = put_snapshot(&store, &snap);
            let path = match snap.rank {
                None => store.master_path(),
                Some(r) => store.shard_path(r),
            };
            let streamed = fs::read(&path).unwrap();
            // Not `assert_eq!`: a helper-sized case would print megabytes.
            assert!(streamed == golden, "streamed bytes differ for case {case}");
            assert_eq!(written, golden.len() as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `FieldSource::Cell` (the zero-copy path) must produce the same bytes
    /// as materializing the cell through `save_bytes` — a small cell, an
    /// empty one, and one whose lent encoding the writer checksums on a
    /// helper thread.
    #[test]
    fn golden_bytes_cell_source_matches_materialized() {
        let dir = tmpdir("golden_cell");
        let store = CheckpointStore::new(&dir).unwrap();
        let grid: Vec<f64> = (0..512).map(|i| i as f64 * 0.5 - 17.0).collect();
        let vec_cell = SharedVec::from_vec(grid);
        let empty_cell = SharedVec::new(0, 0.0f64);
        // 600 001 elements: 4.8 MB, over two SPLIT_PARTs.
        let big: Vec<f64> = (0..600_001).map(|i| (i as f64).sqrt() - 3.0).collect();
        let big_cell = SharedVec::from_vec(big);
        assert!(big_cell.byte_len() >= 2 * SPLIT_PART);
        assert!(big_cell.encoded().is_some());

        let materialized = Snapshot {
            mode_tag: "smp4".into(),
            count: 9,
            rank: None,
            nranks: 1,
            fields: vec![
                ("G".into(), vec_cell.save_bytes()),
                ("Z".into(), empty_cell.save_bytes()),
                ("B".into(), big_cell.save_bytes()),
            ],
        };
        let golden = materialized.encode();

        let fields: Vec<(&str, FieldSource<'_>)> = vec![
            ("G", FieldSource::Cell(&vec_cell)),
            ("Z", FieldSource::Cell(&empty_cell)),
            ("B", FieldSource::Cell(&big_cell)),
        ];
        store
            .put(&Record::Full(&materialized.meta(), &fields))
            .unwrap();
        let streamed = fs::read(store.master_path()).unwrap();
        assert!(
            streamed == golden,
            "streamed bytes differ from the legacy encoding"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An odd-length payload over two [`SPLIT_PART`]s: the writer
    /// checksums it on a helper thread wherever there is a second core.
    fn helper_sized_bytes() -> Vec<u8> {
        (0..2 * SPLIT_PART + 12_345)
            .map(|i| (i * 31 + i / 977) as u8)
            .collect()
    }

    /// A sink that takes `room` bytes, then fails every write — or, when
    /// it fails `once`, one write, and takes every byte after it.
    struct FailingSink {
        room: usize,
        once: bool,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                if self.once {
                    self.room = usize::MAX;
                }
                return Err(std::io::Error::other("sink full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sink that fails in the middle of a payload the helper thread is
    /// checksumming: the encode reports the failure — no panic, no hang —
    /// even when that one write is the only one that fails.
    #[test]
    fn sink_failing_mid_payload_fails_the_encode() {
        let big = helper_sized_bytes();
        let meta = sample(None).meta();
        let fields = [("big", FieldSource::Bytes(&big))];
        let record = Record::Full(&meta, &fields);
        for once in [false, true] {
            let err = record
                .encode(FailingSink {
                    room: SPLIT_PART,
                    once,
                })
                .err()
                .expect("a full sink fails the encode");
            assert!(err.to_string().contains("sink full"), "{err}");
        }
    }

    /// A sink that takes every byte at once and keeps only the count and
    /// the last four: the writer's own write returns long before the
    /// helper has checksummed the payload, and it claims blocks too.
    #[derive(Default)]
    struct FastSink {
        len: u64,
        tail: Vec<u8>,
    }

    impl Write for FastSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = std::io::sink().write(buf)?;
            self.len += n as u64;
            self.tail.extend_from_slice(&buf[n.saturating_sub(4)..n]);
            let keep = self.tail.len().saturating_sub(4);
            self.tail.drain(..keep);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sink that sleeps before taking each write of at most 64 KiB: the
    /// helper claims every block while the writer is still writing.
    struct SlowSink(Vec<u8>);

    impl Write for SlowSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::thread::sleep(std::time::Duration::from_micros(100));
            let n = buf.len().min(64 << 10);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// However the writer and the helper share a large payload's blocks,
    /// the block CRCs join in record order: a record encoded into a sink
    /// that keeps no pace (the writer claims blocks) and into one that
    /// sleeps per write (the helper claims them all) is golden.
    #[test]
    fn golden_bytes_whichever_thread_claims_the_blocks() {
        let snap = Snapshot {
            mode_tag: "smp2".into(),
            count: 11,
            rank: None,
            nranks: 2,
            fields: vec![
                ("big".into(), helper_sized_bytes()),
                ("tail".into(), vec![3; 7]),
            ],
        };
        let golden = snap.encode();
        let fields = bytes_fields(&snap);
        let record = Record::Full(&snap.meta(), &fields);

        let (written, fast) = record.encode(FastSink::default()).unwrap();
        assert_eq!(
            (written, fast.len),
            (golden.len() as u64, golden.len() as u64)
        );
        assert_eq!(fast.tail, golden[golden.len() - 4..], "fast sink");

        let (written, slow) = record.encode(SlowSink(Vec::new())).unwrap();
        assert_eq!(written, golden.len() as u64);
        assert!(slow.0 == golden, "slow sink: bytes differ from golden");
    }

    /// A sink that keeps every byte, holds no base and commits nothing.
    #[derive(Default)]
    struct VecSink(Vec<u8>);

    impl Write for VecSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl RecordSink for VecSink {
        fn commit(self: Box<Self>) -> Result<Superseded> {
            Ok(Superseded::new(self.0.len() as u64))
        }
    }

    /// A payload whose block CRCs are partly known — the blocks that did
    /// not change since they were taken — and partly stale carries the CRC
    /// one pass over it computes, and comes back with every block's CRC:
    /// for an odd-length payload whose last block is partial, one under a
    /// block, and one whose stale blocks a helper thread checksums.
    #[test]
    fn cached_and_stale_block_crcs_give_the_one_pass_crc() {
        let helper = helper_sized_bytes().len();
        let cases = [
            (
                3 * CRC_COPY_BLOCK + 12_345,
                vec![vec![0, 3], vec![1], vec![]],
            ),
            (1_000, vec![vec![0], vec![]]),
            (helper, vec![(1..helper.div_ceil(CRC_COPY_BLOCK)).collect()]),
        ];
        let meta = sample(None).meta();
        for (len, changes) in cases {
            let crcs = |bytes: &[u8]| bytes.chunks(CRC_COPY_BLOCK).map(crc32).collect::<Vec<_>>();
            // Write the record of `payload` with `known` block CRCs: it is
            // golden, and the block CRCs come back.
            let put = |payload: &[u8], known: Vec<Option<u32>>| {
                let fields = [
                    ("head", FieldSource::Bytes(&[1, 2, 3])),
                    ("P", FieldSource::Bytes(payload)),
                ];
                let record = Record::Full(&meta, &fields);
                let plan = [
                    FieldPatch::default(),
                    FieldPatch {
                        write: None,
                        known: Some(known),
                    },
                ];
                let mut sink = VecSink::default();
                let patched = record.patch(&mut sink, &plan).unwrap();
                let (_, golden) = record.encode(Vec::new()).unwrap();
                assert!(sink.0 == golden, "{len} bytes: not golden");
                let trailer = u32::from_le_bytes(golden[golden.len() - 4..].try_into().unwrap());
                assert_eq!((patched.len, patched.crc), (golden.len() as u64, trailer));
                assert_eq!(patched.skipped, 0);
                assert!(patched.blocks[0].is_none(), "no CRCs kept unasked");
                patched.blocks[1].clone().expect("block CRCs of P")
            };
            let old: Vec<u8> = (0..len).map(|i| (i * 7 + i / 251) as u8).collect();
            let blocks = len.div_ceil(CRC_COPY_BLOCK);
            let cached = put(&old, vec![None; blocks]);
            assert_eq!(cached, crcs(&old));
            for changed in changes {
                let mut new = old.clone();
                for &b in &changed {
                    let end = len.min((b + 1) * CRC_COPY_BLOCK);
                    new[end - 1] ^= 0x5A;
                }
                let known = (0..blocks).map(|b| (!changed.contains(&b)).then_some(cached[b]));
                assert_eq!(
                    put(&new, known.collect()),
                    crcs(&new),
                    "{len} bytes, {changed:?}"
                );
            }
        }
    }

    /// Files written by the legacy encoder load through the reader, and
    /// files written by the streaming writer decode to the same snapshot:
    /// both directions of the format-compatibility acceptance criterion.
    #[test]
    fn legacy_and_streamed_files_are_interchangeable() {
        let dir = tmpdir("interop");
        let store = CheckpointStore::new(&dir).unwrap();
        let snap = sample(None);

        // Legacy writer -> new reader.
        fs::write(store.master_path(), snap.encode()).unwrap();
        assert_eq!(store.get(None, None).unwrap().unwrap(), snap);

        // Streaming writer -> reader.
        store
            .put(&Record::Full(&snap.meta(), &bytes_fields(&snap)))
            .unwrap();
        assert_eq!(store.get(None, None).unwrap().unwrap(), snap);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_file_corruption_and_truncation_detected() {
        let dir = tmpdir("stream_corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        let snap = sample(None);
        store
            .put(&Record::Full(&snap.meta(), &bytes_fields(&snap)))
            .unwrap();
        let good = fs::read(store.master_path()).unwrap();

        // Bit flip anywhere must fail the CRC.
        for pos in [0, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            fs::write(store.master_path(), &bad).unwrap();
            assert!(
                matches!(
                    store.get(None, None),
                    Err(PparError::CorruptCheckpoint(_)) | Err(PparError::FormatMismatch { .. })
                ),
                "bit flip at {pos} undetected"
            );
        }

        // Truncation at any boundary must fail.
        for cut in [1, 4, good.len() / 2, good.len() - 1] {
            fs::write(store.master_path(), &good[..cut]).unwrap();
            assert!(
                store.get(None, None).is_err(),
                "truncation to {cut} undetected"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Full save -> load round trip of a `SharedVec<f64>` through the
    /// `write_state` fast path (no per-element serialization on save).
    #[test]
    fn shared_vec_f64_roundtrips_through_streaming_path() {
        let dir = tmpdir("vec_roundtrip");
        let store = CheckpointStore::new(&dir).unwrap();
        let values: Vec<f64> = (0..1000)
            .map(|i| (i as f64).sin() * 1e9 + f64::EPSILON * i as f64)
            .collect();
        let cell = SharedVec::from_vec(values.clone());
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 42,
            rank: None,
            nranks: 1,
        };
        let fields: Vec<(&str, FieldSource<'_>)> = vec![("G", FieldSource::Cell(&cell))];
        store.put(&Record::Full(&meta, &fields)).unwrap();

        let back = store.get(None, None).unwrap().unwrap();
        assert_eq!(back.count, 42);
        let restored = SharedVec::new(1000, 0.0f64);
        restored.load_bytes(back.field("G").unwrap()).unwrap();
        assert_eq!(restored.to_vec(), values);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_writer_enforces_announced_field_count() {
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 0,
            rank: None,
            nranks: 1,
        };
        // Fewer fields than announced: finish() must refuse.
        let w = SnapshotWriter::new(Vec::new(), &meta, 2).unwrap();
        assert!(w.finish().is_err());
        // More fields than announced: the extra field must refuse.
        let mut w = SnapshotWriter::new(Vec::new(), &meta, 1).unwrap();
        w.field("a", &FieldSource::Bytes(&[1])).unwrap();
        assert!(w.field("b", &FieldSource::Bytes(&[2])).is_err());
        // Exact count round-trips.
        let mut w = SnapshotWriter::new(Vec::new(), &meta, 1).unwrap();
        w.field("a", &FieldSource::Bytes(&[1, 2, 3])).unwrap();
        let (written, bytes) = w.finish().unwrap();
        assert_eq!(written as usize, bytes.len());
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded.field("a"), Some(&[1u8, 2, 3][..]));
    }

    // ---- delta records and merge-on-load ----

    use crate::delta::DeltaMeta;

    fn delta_meta(count: u64, base_count: u64, seq: u32, rank: Option<u32>) -> DeltaMeta {
        DeltaMeta {
            mode_tag: "seq".into(),
            count,
            base_count,
            seq,
            rank,
            nranks: 1,
        }
    }

    /// Persist `cell` as the base, then express subsequent writes as a
    /// delta chain and check the merged restore equals a fresh full save.
    #[test]
    fn base_plus_delta_chain_restores_byte_identical() {
        let dir = tmpdir("delta_chain");
        let store = CheckpointStore::new(&dir).unwrap();
        // 40k f64 = 40 dirty chunks, so touching a couple of chunks keeps
        // deltas far below the base size.
        let v = SharedVec::from_vec((0..40_000).map(|i| i as f64).collect());
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 10,
            rank: None,
            nranks: 1,
        };
        store
            .put(&Record::Full(&meta, &[("G", FieldSource::Cell(&v))]))
            .unwrap();
        v.clear_dirty();

        // Delta 1 touches the front, delta 2 overlaps it (last writer wins).
        v.set(0, -1.0);
        v.set(1100, -2.0);
        let ranges = v.dirty_byte_ranges();
        let dm = delta_meta(20, 10, 1, None);
        store
            .put(&Record::Delta(
                &dm,
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
            ))
            .unwrap();
        v.clear_dirty();

        v.set(0, 99.0); // overlaps delta 1's chunk
        v.set(39_999, 5.5);
        let ranges = v.dirty_byte_ranges();
        let dm = delta_meta(30, 10, 2, None);
        store
            .put(&Record::Delta(
                &dm,
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
            ))
            .unwrap();

        let merged = store.get(None, None).unwrap().unwrap();
        assert_eq!(merged.count, 30, "restart replays to the last delta");
        assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());

        // Delta files are much smaller than the base (the whole point).
        let base_len = fs::metadata(store.master_path()).unwrap().len();
        let d1_len = fs::metadata(store.delta_path(None, 1)).unwrap().len();
        assert!(
            d1_len * 2 < base_len,
            "delta ({d1_len}B) should be far smaller than base ({base_len}B)"
        );

        // Promotion: the new base's commit retires the chain.
        let meta = SnapshotMeta { count: 40, ..meta };
        store
            .put(&Record::Full(&meta, &[("G", FieldSource::Cell(&v))]))
            .unwrap();
        assert!(!store.delta_path(None, 1).exists());
        assert!(!store.delta_path(None, 2).exists());
        assert_eq!(store.get(None, None).unwrap().unwrap().count, 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_delta_is_a_noop_that_advances_the_count() {
        let dir = tmpdir("delta_empty");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec(vec![1.0f64; 100]);
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 1,
            rank: None,
            nranks: 1,
        };
        store
            .put(&Record::Full(&meta, &[("G", FieldSource::Cell(&v))]))
            .unwrap();
        v.clear_dirty();

        let dm = delta_meta(2, 1, 1, None);
        store
            .put(&Record::Delta(
                &dm,
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &[],
                    },
                )],
            ))
            .unwrap();
        let merged = store.get(None, None).unwrap().unwrap();
        assert_eq!(merged.count, 2);
        assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_truncated_delta_is_detected() {
        let dir = tmpdir("delta_corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec(vec![2.0f64; 1500]);
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 1,
            rank: None,
            nranks: 1,
        };
        store
            .put(&Record::Full(&meta, &[("G", FieldSource::Cell(&v))]))
            .unwrap();
        v.clear_dirty();
        v.set(7, 3.0);
        let ranges = v.dirty_byte_ranges();
        store
            .put(&Record::Delta(
                &delta_meta(2, 1, 1, None),
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
            ))
            .unwrap();
        let path = store.delta_path(None, 1);
        let good = fs::read(&path).unwrap();

        // Bit flips anywhere fail the CRC (or the magic/version check).
        for pos in [0, 8, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            assert!(
                store.get(None, None).is_err(),
                "bit flip at {pos} undetected"
            );
        }
        // Truncations fail.
        for cut in [3, 16, good.len() / 2, good.len() - 1] {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(
                store.get(None, None).is_err(),
                "truncation to {cut} undetected"
            );
        }
        // An unsupported format version is rejected up front.
        let mut v2 = good.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let n = v2.len();
        let crc = crc32(&v2[..n - 4]);
        v2[n - 4..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &v2).unwrap();
        match store.get(None, None) {
            Err(PparError::FormatMismatch { expected, .. }) => {
                assert!(expected.contains("delta format"))
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_chain_from_old_base_is_ignored() {
        let dir = tmpdir("delta_stale");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec(vec![0.0f64; 64]);
        let snap = |count| SnapshotMeta {
            mode_tag: "seq".into(),
            count,
            rank: None,
            nranks: 1,
        };
        store
            .put(&Record::Full(&snap(1), &[("G", FieldSource::Cell(&v))]))
            .unwrap();
        v.clear_dirty();
        v.set(0, 1.0);
        let ranges = v.dirty_byte_ranges();
        store
            .put(&Record::Delta(
                &delta_meta(2, 1, 1, None),
                &[(
                    "G",
                    DeltaSource::DirtyCell {
                        cell: &v,
                        ranges: &ranges,
                    },
                )],
            ))
            .unwrap();

        // Promote a new base (count 3) but "crash" before its commit
        // retires the chain (the delta is put back): the leftover delta's
        // base_count (1) no longer matches and must be skipped, not
        // applied and not fatal.
        let stale = fs::read(store.delta_path(None, 1)).unwrap();
        v.set(0, 42.0);
        store
            .put(&Record::Full(&snap(3), &[("G", FieldSource::Cell(&v))]))
            .unwrap();
        fs::write(store.delta_path(None, 1), stale).unwrap();
        let merged = store.get(None, None).unwrap().unwrap();
        assert_eq!(merged.count, 3);
        assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());

        // An in-chain sequence-number mismatch, by contrast, is corruption.
        store
            .put(&Record::Delta(
                &delta_meta(4, 3, 2, None),
                &[("G", DeltaSource::Full(FieldSource::Cell(&v)))],
            ))
            .unwrap();
        fs::rename(store.delta_path(None, 2), store.delta_path(None, 1)).unwrap();
        assert!(store.get(None, None).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard chain an older release left still folds, its offsets
    /// relative to the shard's payload (the owned block), not the field.
    #[test]
    #[allow(clippy::single_range_in_vec_init)] // ranges here are span data
    fn shard_delta_chain_merges_relative_to_shard_payload() {
        let dir = tmpdir("delta_shard");
        let store = CheckpointStore::new(&dir).unwrap();
        let shard_bytes: Vec<u8> = (0..64u8).collect();
        let meta = SnapshotMeta {
            mode_tag: "dist4".into(),
            count: 5,
            rank: Some(2),
            nranks: 4,
        };
        store
            .put(&Record::Full(
                &meta,
                &[("G", FieldSource::Bytes(&shard_bytes))],
            ))
            .unwrap();

        let mut expect = shard_bytes.clone();
        expect[16..24].copy_from_slice(&[9u8; 8]);
        let patched = SharedVec::from_vec(expect.clone());
        let mut dm = delta_meta(6, 5, 1, Some(2));
        dm.nranks = 4;
        let sparse = DeltaSource::DirtyCell {
            cell: &patched,
            ranges: &[16..24],
        };
        legacy_delta(&store, &Record::Delta(&dm, &[("G", sparse)]));
        let merged = store.get(Some(2), None).unwrap().unwrap();
        assert_eq!(merged.count, 6);
        assert_eq!(merged.field("G").unwrap(), expect.as_slice());
        assert_eq!(store.get(Some(2), Some(6)).unwrap().unwrap(), merged);
        // Master chain is untouched by shard deltas.
        assert!(store.get(None, None).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_roundtrips_through_decode() {
        let dir = tmpdir("delta_decode");
        let store = CheckpointStore::new(&dir).unwrap();
        let v = SharedVec::from_vec((0..2000).map(|i| (i as f64).sqrt()).collect());
        v.clear_dirty();
        v.set(1500, -8.0);
        let ranges = v.dirty_byte_ranges();
        let opaque = vec![1u8, 2, 3];
        store
            .put(&Record::Delta(
                &delta_meta(7, 3, 2, None),
                &[
                    (
                        "G",
                        DeltaSource::DirtyCell {
                            cell: &v,
                            ranges: &ranges,
                        },
                    ),
                    ("pop", DeltaSource::Full(FieldSource::Bytes(&opaque))),
                ],
            ))
            .unwrap();
        let record = fs::read(store.delta_path(None, 2)).unwrap();
        let d = crate::delta::DeltaView::of_record(&record).unwrap();
        assert_eq!(d.meta, delta_meta(7, 3, 2, None));
        assert_eq!(d.fields.len(), 2);
        match &d.fields[0].1 {
            crate::delta::DeltaPayload::Sparse {
                full_len,
                ranges: rs,
            } => {
                assert_eq!(*full_len, 2000 * 8);
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].0 as usize, ranges[0].start);
                assert_eq!(rs[0].1.len(), ranges[0].len());
            }
            other => panic!("expected sparse payload, got {other:?}"),
        }
        assert_eq!(d.fields[1].1, crate::delta::DeltaPayload::Full(&opaque[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        /// The acceptance-criterion property: for arbitrary write sequences,
        /// restoring base + delta chain is byte-identical to a full snapshot
        /// of the same final state.
        #[test]
        fn prop_base_plus_deltas_equals_full_snapshot(
            w1 in proptest::collection::vec((0usize..3000, proptest::prelude::any::<f64>()), 0..40),
            w2 in proptest::collection::vec((0usize..3000, proptest::prelude::any::<f64>()), 0..40)
        ) {
            let dir = tmpdir("prop_delta");
            let store = CheckpointStore::new(&dir).unwrap();
            let v = SharedVec::from_vec((0..3000).map(|i| i as f64 * 0.25).collect());
            let meta = SnapshotMeta {
                mode_tag: "seq".into(),
                count: 1,
                rank: None,
                nranks: 1,
            };
            store
                .put(&Record::Full(&meta, &[("G", FieldSource::Cell(&v))]))
                .unwrap();
            v.clear_dirty();

            for (seq, writes) in [(1u32, &w1), (2u32, &w2)] {
                for &(i, val) in writes {
                    v.set(i, val);
                }
                let ranges = v.dirty_byte_ranges();
                store
                    .put(&Record::Delta(&delta_meta(1 + seq as u64, 1, seq, None), &[("G", DeltaSource::DirtyCell { cell: &v, ranges: &ranges })]))
                    .unwrap();
                v.clear_dirty();
            }

            let merged = store.get(None, None).unwrap().unwrap();
            proptest::prop_assert_eq!(merged.field("G").unwrap(), v.save_bytes().as_slice());
            proptest::prop_assert_eq!(merged.count, 3);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
