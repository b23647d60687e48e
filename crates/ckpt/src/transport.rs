//! Pluggable checkpoint transports: where record bytes travel.
//!
//! The checkpoint layer separates *what* is persisted (the snapshot and
//! delta encodings of [`crate::store`] and [`crate::delta`], produced by
//! the one golden [`crate::store::SnapshotWriter`]) from *where* the bytes
//! go. A medium is a [`CkptTransport`] and only moves records: it writes
//! `describe`, `begin` and `with_merged`, and four ideas carry the whole
//! seam:
//!
//! * **key** — a [`RecordKey`] names one record: which chain (`rank`,
//!   `None` = master) and which position in it (`delta`, `None` = the full
//!   base record). A record's own header carries the same two values, so
//!   the key is always derivable from the record.
//! * **sink** — [`CkptTransport::begin`] opens the medium's one
//!   [`RecordSink`] for a key: a [`Write`] that takes the record's encoded
//!   bytes in order, then [`RecordSink::commit`] or [`RecordSink::abort`].
//!   Who produces the bytes does not matter: the encoder running over live
//!   cells, or a network lane relaying bytes another rank encoded.
//! * **superseded, spared for the caller** — a commit publishes the new
//!   record and answers [`Superseded`]: its byte count plus the *spare*
//!   names it gave the stored files it superseded (the record it renamed
//!   over, a retired chain's deltas). Every record name is in place when
//!   `commit` returns. The checkpoint module
//!   and the checkpoint service's lanes keep the spares, so the next save
//!   of each key rewrites the file that key last retired
//!   ([`crate::hook`]); a direct [`CkptTransport::put`] drops the value at
//!   once, which unlinks them. A sink may say what the file it rewrites
//!   already holds ([`RecordSink::held`], [`RecordSink::skip`]); the
//!   defaults hold nothing, so only the flat layout's sink ever sees a
//!   patch. Nor does any other sink offer a twin ([`RecordSink::twin`]):
//!   the copy of a record a fresh flat sink of the master publishes as its
//!   spare, so that the key's second save patches too.
//! * **put, once** — [`CkptTransport::put`] is *provided*: derive the key
//!   from the record's header, run the golden encoder into `begin(key)`,
//!   commit, and drop what the commit superseded. No medium
//!   implements a put of its own, so every medium stores byte-identical
//!   encodings of identical content.
//! * **read, once** — [`CkptTransport::with_merged`] is the one read a
//!   medium writes, and it is a *lend*: the medium establishes the record
//!   (the disk store folds base + live deltas, CRC-verified, optionally
//!   pinned to one safe point) and runs the caller's closure over a
//!   [`SnapshotView`] whose payloads are slices of bytes the medium holds.
//!   **The closure runs at most once, and only after the medium has
//!   established that it serves the requested safe point**, so a caller may
//!   install into live cells straight from it. The other two shapes are
//!   *provided* over the lend: [`CkptTransport::get`] *owns* (a copy of the
//!   view), [`CkptTransport::write_merged_record_at`] *streams* (the view
//!   through the golden encoder). Two media override the stream, both to
//!   pass on bytes that already *are* the record: the store copies a file
//!   through unparsed when no live delta has to be folded — what the root's
//!   checkpoint service answers a restore with — and the wire client
//!   forwards that answer to the caller's sink as it arrives.
//!
//! **The failed-put rule**, binding on every medium: *a put that fails
//! leaves the previous record for that key readable and no partial
//! artefact.* Sinks therefore stage (spare buffer, unique temp file,
//! journaled transaction), swap on `commit`, and clean up on `abort` or
//! drop; `commit` also refuses a record whose header names another key.
//!
//! **Every record carries its CRC**, so memory, the wire and the disk hold
//! byte-identical records. Memory's lend alone skips the check
//! ([`SnapshotView::decode_trusted`]): its bytes never left the process.
//!
//! **A chain lives only on disk**, and the disk store keeps it: committing
//! a base retires that chain's deltas, and the group-commit point is the
//! store's own (`CheckpointStore::commit_group`). Only the master has a
//! chain: the store refuses a shard's delta key. Memory holds whole
//! records: its `begin` refuses a delta key, and its lend is the held
//! record itself, pinned to that record's safe point or refused from its
//! header.
//!
//! Media: [`crate::store::CheckpointStore`] (flat files or the
//! content-addressed layout; the one medium a delta chain lives in),
//! [`MemTransport`] (whole records: benches and the survivor-local mirror's
//! slots), and in `ppar-net` the wire client and the mirror. A live
//! reshape's [`crate::Handoff`] is not a medium: the successor reads the
//! predecessor's frozen cells through the hand-off's own methods.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

use ppar_core::error::{PparError, Result};
use ppar_core::sync::{AtomicU64, Mutex, Ordering, RwLock};

use crate::cas::{ChunkRef, PutStats};
use crate::delta::{DeltaMeta, DELTA_MAGIC};
use crate::store::{
    unserved, DeltaSource, FieldSource, Reader, Record, Snapshot, SnapshotMeta, SnapshotView, Twin,
};

/// Names one record of one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordKey {
    /// Owning rank's shard chain; `None` = the master (mode-independent)
    /// chain.
    pub rank: Option<u32>,
    /// `Some(seq)` = delta `seq` (1-based) of the chain; `None` = its full
    /// base record. Only the master's chain takes deltas: a store refuses
    /// a shard's delta key.
    pub delta: Option<u32>,
}

impl RecordKey {
    /// The full (base) record of `rank`'s chain.
    pub const fn full(rank: Option<u32>) -> RecordKey {
        RecordKey { rank, delta: None }
    }

    /// Delta `seq` of `rank`'s chain.
    pub const fn delta(rank: Option<u32>, seq: u32) -> RecordKey {
        RecordKey {
            rank,
            delta: Some(seq),
        }
    }

    /// The key an encoded record's own header names, read from the
    /// record's leading bytes (a prefix long enough to hold the header).
    pub fn of_record(head: &[u8]) -> Result<RecordKey> {
        let mut r = Reader { buf: head, pos: 0 };
        if head.starts_with(DELTA_MAGIC) {
            let meta = DeltaMeta::header(&mut r)?;
            Ok(RecordKey::delta(meta.rank, meta.seq))
        } else {
            Ok(RecordKey::full(SnapshotView::header(&mut r)?.rank))
        }
    }

    /// Refuse a record routed to the wrong key: a record whose bytes are
    /// intact can still have been sent to the wrong sink, and must not
    /// displace a good one.
    pub(crate) fn check_record(self, head: &[u8]) -> Result<()> {
        let found = RecordKey::of_record(head)?;
        if found != self {
            return Err(PparError::CorruptCheckpoint(format!(
                "install for {self:?} received the record of {found:?}"
            )));
        }
        Ok(())
    }
}

/// Leading record bytes a sink keeps (or reads back) for
/// [`RecordKey::check_record`], and a header peek reads: mode tags are
/// short strings, so both headers end well inside this.
pub(crate) const HEAD_BYTES: usize = 4096;

/// Append to `head` what it still lacks of the record's first
/// `HEAD_BYTES` bytes.
pub(crate) fn keep_head(head: &mut Vec<u8>, bytes: &[u8]) {
    let room = HEAD_BYTES.saturating_sub(head.len());
    head.extend_from_slice(&bytes[..bytes.len().min(room)]);
}

/// What a [`RecordSink::commit`] superseded: the committed record's length
/// in bytes, and the spare names the commit gave the stored files it
/// superseded. A spare is never a record name: no reader sees it, and the
/// next flat sink of the key it belongs to claims it and rewrites the file
/// in place — only where it differs, when the saver recognises the record
/// the spare holds ([`RecordSink::held`]; the encoder returns the CRC that
/// names it) — so a save does not pay the kernel for a fresh file's page
/// cache and then again for freeing the old one. Dropping the value
/// unlinks the spares, which frees the files inline (a direct
/// [`CkptTransport::put`]); [`Superseded::keep`] leaves them on disk (the
/// checkpoint module and the checkpoint service's lanes). A medium that
/// keeps nothing on disk names none.
#[derive(Debug, Default)]
pub struct Superseded {
    pub(crate) bytes: u64,
    pub(crate) spares: Vec<PathBuf>,
}

impl Superseded {
    /// A commit of `bytes` that spared nothing.
    pub fn new(bytes: u64) -> Superseded {
        Superseded {
            bytes,
            spares: Vec::new(),
        }
    }

    /// Length of the committed record in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Leave the spares on disk for the next saves of their keys to claim,
    /// and return the committed record's length.
    pub fn keep(mut self) -> u64 {
        self.spares.clear();
        self.bytes
    }
}

impl Drop for Superseded {
    fn drop(&mut self) {
        for spare in &self.spares {
            let _ = std::fs::remove_file(spare);
        }
    }
}

/// A full record a sink's file already holds ([`RecordSink::held`]): its
/// length, the count its header names and its trailer CRC. Equal to what a
/// commit of the caller's produced, it names that commit's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Held {
    /// Record length in bytes, CRC trailer included.
    pub len: u64,
    /// The safe-point count its header names.
    pub count: u64,
    /// Its trailer: the CRC-32 of every byte before it.
    pub crc: u32,
}

/// The one way a record enters a medium (see the [module docs](self)):
/// write the record's encoded bytes in order, trailing CRC included, then
/// commit or abort. A sink dropped without either behaves as aborted.
/// Callers relaying bytes they did not encode verify the record's CRC
/// before [`RecordSink::commit`].
pub trait RecordSink: Write {
    /// The dedup question, asked before any byte is written: of the
    /// record's chunks (`chunks`, in order, summing to `total_len` bytes),
    /// which does the medium lack? `None` — the default — is "all of them:
    /// this medium keeps no chunks", and the record is then written whole.
    /// After `Some(lacking)` the caller writes exactly the lacking chunks'
    /// bytes back to back in the listed order instead of the record; each
    /// is verified against its announced digest.
    fn lacking(&mut self, _chunks: &[ChunkRef], _total_len: u64) -> Result<Option<Vec<u32>>> {
        Ok(None)
    }

    /// What the file this sink rewrites already holds, asked before any
    /// byte is written: `Some` when it is a full record, named by its
    /// length, header count and trailer CRC ([`Held`]), which the caller
    /// may then rewrite in place — write what differs, [`RecordSink::skip`]
    /// over the rest. `None` — the default — is "no base held": the record
    /// is written whole. Only the flat layout's sink over a claimed spare
    /// holds one; the answer is unverified, and a caller trusts it only if
    /// it names a record the caller itself committed.
    fn held(&mut self) -> Result<Option<Held>> {
        Ok(None)
    }

    /// Move past the next `n` bytes of the held record, leaving them as
    /// they are. Only after [`RecordSink::held`] answered `Some`; the
    /// default, for a sink that holds no base, refuses.
    fn skip(&mut self, _n: u64) -> std::io::Result<()> {
        Err(std::io::Error::other(
            "this sink holds no record to move past",
        ))
    }

    /// A second file for a byte-identical copy of the record, asked before
    /// any byte is written: the writer fills it at the record's own offsets
    /// and hands it back whole ([`RecordSink::seed`]). `None` — the
    /// default — offers none. Only the flat layout's sink over a fresh
    /// file of the master record offers one.
    fn twin(&mut self) -> Option<Twin> {
        None
    }

    /// The [`RecordSink::twin`] holds every byte of the record: the commit
    /// publishes it as the key's spare, right after the record's own
    /// rename, and a sink that does not commit removes it. A twin that
    /// cannot take the name is removed; the commit stands.
    fn seed(&mut self, _twin: Twin) {}

    /// The record is complete: install it atomically under the sink's key
    /// and return its length with what it superseded ([`Superseded`]).
    /// Every name the commit changes is in place when it returns. Fails —
    /// leaving the previous record in place — when the record's header
    /// names a different key.
    fn commit(self: Box<Self>) -> Result<Superseded>;

    /// Discard what was written; the previous record for the key stays.
    /// `why` travels to the far end of a remote sink.
    fn abort(self: Box<Self>, _why: &str) {}
}

/// A checkpoint medium. See the [module docs](self) for the contract; a
/// new medium writes `describe`, `begin` and `with_merged`.
pub trait CkptTransport: Send + Sync {
    /// Short human-readable tag for reports (`"file"`, `"memory"`).
    fn describe(&self) -> &'static str;

    /// Open the sink for `key`. `len_hint` is the expected record length
    /// (0 when unknown): a pre-sizing hint, never trusted as a bound.
    fn begin<'a>(&'a self, key: RecordKey, len_hint: u64) -> Result<Box<dyn RecordSink + 'a>>;

    /// Persist one record: the golden encoder streams `record` into the
    /// sink of the key its header names. Returns bytes written; what the
    /// commit superseded is freed before it returns.
    fn put(&self, record: &Record<'_>) -> Result<u64> {
        let (superseded, _) = commit_record(self, record, |sink| record.encode(sink).map(drop))?;
        Ok(superseded.bytes())
    }

    /// `put(&Record::Full(meta, fields))`; `_scratch` is ignored. Kept only
    /// because the benchmark under `ledger/`, which may not change, calls
    /// it by this name and with this argument list; workspace code calls
    /// [`CkptTransport::put`].
    fn put_master(
        &self,
        meta: &SnapshotMeta,
        fields: &[(&str, FieldSource<'_>)],
        _scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        self.put(&Record::Full(meta, fields))
    }

    /// `put(&Record::Delta(meta, fields))`; kept for the same reason as
    /// [`CkptTransport::put_master`].
    fn put_master_delta(
        &self,
        meta: &DeltaMeta,
        fields: &[(&str, DeltaSource<'_>)],
        _scratch: &mut Vec<u8>,
    ) -> Result<u64> {
        self.put(&Record::Delta(meta, fields))
    }

    /// Lend `rank`'s chain (`None` = master) with its deltas folded in:
    /// `read` runs over a view that is per field byte-identical to a full
    /// snapshot of the same state, its payloads borrowed from the medium.
    /// `at: Some(count)` pins the read to exactly that safe point: deltas
    /// past it are left out, a medium that retains an older generation
    /// falls back to it, and a chain that cannot land on `count` is an
    /// error, never a different safe point. Restores pass the replay
    /// target here so a torn group checkpoint (one rank died mid-save, its
    /// peers already wrote a newer generation) is detected instead of
    /// installed.
    ///
    /// `read` runs **at most once**, and only after the medium has
    /// established that the chain serves `at`; its error is the call's.
    /// `Ok(false)` — `read` did not run — when the chain has no base
    /// record.
    fn with_merged(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool>;

    /// [`CkptTransport::with_merged`], owned: a copy of the view.
    /// `Ok(None)` when the chain has no base record.
    fn get(&self, rank: Option<u32>, at: Option<u64>) -> Result<Option<Snapshot>> {
        let mut snap = None;
        self.with_merged(rank, at, &mut |view| {
            snap = Some(view.to_snapshot());
            Ok(())
        })?;
        Ok(snap)
    }

    /// `with_merged(None, None, install)`. Kept because the benchmark under
    /// `ledger/`, which may not change, calls it by this name.
    fn with_merged_master(
        &self,
        install: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool> {
        self.with_merged(None, None, install)
    }

    /// Stream `rank`'s merged chain into `out` as one *checksummed* full
    /// record — the restore direction of the checkpoint service. Returns
    /// bytes written, `Ok(None)` when the chain has no base record.
    fn write_merged_record(&self, rank: Option<u32>, out: &mut dyn Write) -> Result<Option<u64>> {
        self.write_merged_record_at(rank, None, out)
    }

    /// [`CkptTransport::write_merged_record`] pinned like
    /// [`CkptTransport::with_merged`]: the lent view goes through the
    /// golden encoder. The store overrides this to copy a record file
    /// through when no live delta has to be folded, the wire client to
    /// forward the record as it arrives. On `Err`, `out` may hold a prefix
    /// of the record.
    fn write_merged_record_at(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        out: &mut dyn Write,
    ) -> Result<Option<u64>> {
        stream_merged(self, rank, at, out)
    }

    /// Drain the chunk-dedup counters this medium's sinks accumulated
    /// since the last drain (all zero without a content-addressed medium
    /// or a dedup-negotiating wire); the checkpoint module folds them into
    /// [`crate::CkptStats`] after every save.
    fn take_put_stats(&self) -> PutStats {
        PutStats::default()
    }
}

/// Cap a sender-supplied record-size hint before using it as an
/// allocation size (a hint is advisory; a bogus huge one must not OOM the
/// receiver).
pub fn clamp_record_hint(len_hint: u64) -> usize {
    len_hint.min(1 << 28) as usize
}

/// [`CkptTransport::put`] up to its commit, `write` putting `record` into
/// its sink: the caller decides whether what the commit superseded is
/// freed or kept. A sink whose write fails is aborted.
pub(crate) fn commit_record<T>(
    transport: &(impl CkptTransport + ?Sized),
    record: &Record<'_>,
    write: impl FnOnce(&mut dyn RecordSink) -> Result<T>,
) -> Result<(Superseded, T)> {
    let mut sink = transport.begin(record.key(), record.len_hint())?;
    match write(&mut *sink) {
        Ok(wrote) => Ok((sink.commit()?, wrote)),
        Err(e) => {
            sink.abort(&e.to_string());
            Err(e)
        }
    }
}

/// [`CkptTransport::write_merged_record_at`] over the lend: the provided
/// method, and what a copy-through override falls back on when a live
/// delta has to be folded first.
pub(crate) fn stream_merged(
    transport: &(impl CkptTransport + ?Sized),
    rank: Option<u32>,
    at: Option<u64>,
    out: &mut dyn Write,
) -> Result<Option<u64>> {
    let mut written = None;
    transport.with_merged(rank, at, &mut |view| {
        written = Some(view.write_record(out)?);
        Ok(())
    })?;
    Ok(written)
}

// ---------------------------------------------------------------------------
// in-memory transport
// ---------------------------------------------------------------------------

/// An in-memory checkpoint transport: the same full records a
/// [`crate::store::CheckpointStore`] would put on disk, byte for byte, one
/// per chain, held in one `key → bytes` map, with no delta (see the
/// [module docs](self)).
///
/// It is the medium of the survivor-local mirror's slots and of benches. A
/// live reshape's hand-off is not one of its records: the successor reads
/// the predecessor's frozen cells ([`crate::Handoff`]), so no state-sized
/// record is encoded at the crossing.
#[derive(Default)]
pub struct MemTransport {
    /// Readers share the map (concurrent lends of one record); a commit or
    /// a clear takes it exclusively.
    records: RwLock<HashMap<RecordKey, Vec<u8>>>,
    /// Retired record buffers recycled into sinks: repeated puts then run
    /// at warm-page copy speed instead of faulting a fresh multi-MiB
    /// mapping in per checkpoint.
    spare: Mutex<Vec<Vec<u8>>>,
    bytes_written: AtomicU64,
}

/// Buffers kept in the recycle pool (beyond this, retired buffers are
/// simply freed).
const SPARE_POOL_CAP: usize = 8;

/// Total *capacity* the recycle pool may retain. The count cap alone let a
/// large job pin up to eight multi-GiB record buffers for the life of the
/// transport; bounding retained bytes caps that at a fixed footprint while
/// still keeping steady-state checkpointing allocation-free for records up
/// to tens of MiB.
const SPARE_POOL_MAX_BYTES: usize = 256 << 20;

impl MemTransport {
    /// An empty in-memory transport.
    pub fn new() -> MemTransport {
        MemTransport::default()
    }

    /// Total record bytes streamed into this transport so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Raw encoded bytes of a held record (byte-equality assertions in
    /// tests and benches — e.g. relayed installs against local puts).
    pub fn record_bytes(&self, key: RecordKey) -> Option<Vec<u8>> {
        self.records.read().get(&key).cloned()
    }

    /// Drop every held record (counters are kept).
    pub fn clear(&self) {
        self.records.write().clear();
    }

    /// Return a retired record buffer to the recycle pool. Retention is
    /// bounded in count *and* bytes (see [`SPARE_POOL_MAX_BYTES`]): after
    /// a large job the pool must not pin multi-GiB buffers forever.
    fn recycle(&self, mut buf: Vec<u8>) {
        let mut pool = self.spare.lock();
        let retained: usize = pool.iter().map(Vec::capacity).sum();
        if pool.len() < SPARE_POOL_CAP
            && buf.capacity() > 0
            && retained.saturating_add(buf.capacity()) <= SPARE_POOL_MAX_BYTES
        {
            buf.clear();
            pool.push(buf);
        }
    }
}

/// The memory medium's sink: bytes append to a recycled buffer; commit
/// swaps the record in under the map's write lock, so a reader sees the
/// previous record or the new one, never neither.
struct MemSink<'a> {
    mem: &'a MemTransport,
    key: RecordKey,
    buf: Vec<u8>,
}

impl Write for MemSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl RecordSink for MemSink<'_> {
    fn commit(mut self: Box<Self>) -> Result<Superseded> {
        let buf = std::mem::take(&mut self.buf);
        if let Err(e) = self.key.check_record(&buf) {
            self.mem.recycle(buf);
            return Err(e);
        }
        let n = buf.len();
        if let Some(old) = self.mem.records.write().insert(self.key, buf) {
            self.mem.recycle(old);
        }
        self.mem
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(Superseded::new(n as u64))
    }

    fn abort(mut self: Box<Self>, _why: &str) {
        self.mem.recycle(std::mem::take(&mut self.buf));
    }
}

impl CkptTransport for MemTransport {
    fn describe(&self) -> &'static str {
        "memory"
    }

    /// A delta key is refused: memory holds whole records only.
    fn begin<'a>(&'a self, key: RecordKey, len_hint: u64) -> Result<Box<dyn RecordSink + 'a>> {
        if key.delta.is_some() {
            return Err(PparError::ContractViolation(format!(
                "memory holds whole records only: cannot put {key:?} into it"
            )));
        }
        let mut buf = self.spare.lock().pop().unwrap_or_default();
        buf.reserve(clamp_record_hint(len_hint));
        Ok(Box::new(MemSink {
            mem: self,
            key,
            buf,
        }))
    }

    /// The held record is lent where it lies (one copy total: record →
    /// cells). A pin at another safe point is refused from its header,
    /// before `read` runs. The CRC is not re-checked: the bytes never left
    /// this process. `read` runs under a shared read guard: every element of
    /// an aggregate may lend the one record at once, and a racing put waits
    /// for them, so a reader sees the old record or the new one, whole.
    fn with_merged(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool> {
        let records = self.records.read();
        let Some(record) = records.get(&RecordKey::full(rank)) else {
            return Ok(false);
        };
        let view = SnapshotView::decode_trusted(record)?;
        match at {
            Some(at) if at != view.meta.count => {
                let tried = format!("reaches safe point {}", view.meta.count);
                Err(unserved(rank, at, &[tried]))
            }
            _ => read(&view).map(|()| true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CheckpointStore;
    use ppar_core::shared::SharedVec;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ppar_transport_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn meta(count: u64, rank: Option<u32>) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: "smp4".into(),
            count,
            rank,
            nranks: 4,
        }
    }

    fn put_bytes(t: &dyn CkptTransport, meta: &SnapshotMeta, payload: &[u8]) -> u64 {
        t.put(&Record::Full(meta, &[("G", FieldSource::Bytes(payload))]))
            .unwrap()
    }

    #[test]
    fn key_of_record_reads_both_headers() {
        let mem = MemTransport::new();
        put_bytes(&mem, &meta(5, Some(2)), &[1, 2, 3]);
        let full = mem.record_bytes(RecordKey::full(Some(2))).unwrap();
        assert_eq!(
            RecordKey::of_record(&full).unwrap(),
            RecordKey::full(Some(2))
        );
        // A prefix that holds the header is enough.
        assert_eq!(
            RecordKey::of_record(&full[..40]).unwrap(),
            RecordKey::full(Some(2))
        );

        let dm = DeltaMeta {
            mode_tag: "smp4".into(),
            count: 6,
            base_count: 5,
            seq: 3,
            rank: None,
            nranks: 4,
        };
        let whole = DeltaSource::Full(FieldSource::Bytes(&[9]));
        let (_, delta) = Record::Delta(&dm, &[("G", whole)])
            .encode(Vec::new())
            .unwrap();
        assert_eq!(
            RecordKey::of_record(&delta).unwrap(),
            RecordKey::delta(None, 3)
        );
        assert!(RecordKey::of_record(b"PPARCKP").is_err());
        assert!(RecordKey::delta(None, 2).check_record(&delta).is_err());
    }

    /// Memory keeps one record per chain, each read back at its own count;
    /// the counters see every committed record.
    #[test]
    fn mem_keeps_one_record_per_chain_and_counts_every_put() {
        let t = MemTransport::new();
        let count = |rank| t.get(rank, None).unwrap().map(|snap| snap.count);
        put_bytes(&t, &meta(5, Some(2)), &[9; 16]);
        assert_eq!(
            [count(Some(2)), count(Some(0)), count(None)],
            [Some(5), None, None]
        );
        put_bytes(&t, &meta(9, Some(0)), &[9; 16]);
        let written = put_bytes(&t, &meta(7, None), &[9; 16]);
        assert_eq!(
            [count(Some(2)), count(Some(0)), count(None)],
            [Some(5), Some(9), Some(7)]
        );
        assert_eq!(t.bytes_written(), 2 * written + written);
    }

    /// Memory holds one whole record per chain: a pin at its count is
    /// served, any other pin is refused from the header before `read`
    /// runs, and a refused delta put leaves those answers as they were.
    #[test]
    fn mem_pinned_get_serves_only_the_held_safe_point() {
        let t = MemTransport::new();
        put_bytes(&t, &meta(10, Some(1)), &[3; 8]);
        let at10 = t.get(Some(1), Some(10)).unwrap().unwrap();
        assert_eq!((at10.count, at10.field("G").unwrap()), (10, &[3u8; 8][..]));
        for at in [5, 20] {
            let mut ran = false;
            let miss = t.with_merged(Some(1), Some(at), &mut |_| {
                ran = true;
                Ok(())
            });
            assert!(
                matches!(miss, Err(PparError::CorruptCheckpoint(_))),
                "{miss:?}"
            );
            assert!(!ran, "a miss is decided from the header");
        }

        let dm = DeltaMeta {
            mode_tag: "smp4".into(),
            count: 20,
            base_count: 10,
            seq: 1,
            rank: Some(1),
            nranks: 4,
        };
        let whole = DeltaSource::Full(FieldSource::Bytes(&[9; 8]));
        let written = t.bytes_written();
        let refused = t.put(&Record::Delta(&dm, &[("G", whole)]));
        assert!(matches!(refused, Err(PparError::ContractViolation(_))));
        assert_eq!(t.get(Some(1), None).unwrap().unwrap(), at10);
        assert!(t.get(Some(1), Some(20)).is_err());
        assert_eq!(t.bytes_written(), written);
    }

    /// The transport contract: for identical content, the in-memory record
    /// equals the file the disk store writes byte for byte, CRC trailer
    /// included, and both decode to the same snapshot.
    #[test]
    fn mem_bytes_equal_file_bytes() {
        let dir = tmpdir("golden");
        let store = CheckpointStore::new(&dir).unwrap();
        let mem = MemTransport::new();
        let v = SharedVec::from_vec((0..512).map(|i| (i as f64).sin()).collect());
        let m = meta(3, None);
        let fields: Vec<(&str, FieldSource<'_>)> = vec![("G", FieldSource::Cell(&v))];
        let record = Record::Full(&m, &fields);
        let on_disk = store.put(&record).unwrap();
        let in_mem = mem.put(&record).unwrap();
        assert_eq!(on_disk, in_mem);
        let file = std::fs::read(dir.join("ckpt_master.bin")).unwrap();
        assert_eq!(mem.record_bytes(RecordKey::full(None)).unwrap(), file);
        assert_eq!(
            mem.get(None, None).unwrap().unwrap(),
            store.get(None, None).unwrap().unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Readers lend one record at once: two lends are inside `read`
    /// together (each waits there for the other) and see the same bytes,
    /// and a put racing a stream of lends never shows a reader a record
    /// that is part old, part new.
    #[test]
    fn mem_lends_run_concurrently_and_never_see_a_torn_record() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::time::Duration;

        let t = MemTransport::new();
        put_bytes(&t, &meta(1, None), &[1; 4096]);
        let (to_b, from_a) = channel();
        let (to_a, from_b) = channel();
        let lend = |tell: Sender<()>, hear: Receiver<()>| {
            let mut seen = (false, Vec::new());
            let found = t.with_merged(None, None, &mut |view| {
                let _ = tell.send(());
                seen = (
                    hear.recv_timeout(Duration::from_secs(10)).is_ok(),
                    view.field("G").unwrap().to_vec(),
                );
                Ok(())
            });
            assert!(found.unwrap());
            seen
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| lend(to_b, from_b));
            let b = s.spawn(|| lend(to_a, from_a));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a.0 && b.0, "both lends were inside `read` at once");
        assert_eq!(a.1, b.1);
        assert_eq!(a.1, vec![1; 4096]);

        std::thread::scope(|s| {
            s.spawn(|| {
                for count in 2..=200u64 {
                    put_bytes(&t, &meta(count, None), &[count as u8; 4096]);
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        t.with_merged(None, None, &mut |view| {
                            let g = view.field("G").unwrap();
                            let want = view.meta.count as u8;
                            assert!(g.iter().all(|&b| b == want), "torn record");
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.get(None, None).unwrap().unwrap().count, 200);
    }

    proptest::proptest! {
        /// The acceptance-criterion property: for random field mixes, the
        /// in-memory transport round-trip is byte-identical to a file-backed
        /// save + load of the same content (shared golden encoder on the
        /// way in, shared reader + chain rules on the way out).
        #[test]
        fn prop_mem_roundtrip_matches_file_roundtrip(
            fields in proptest::collection::vec(
                ("[a-z]{1,8}", proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600)),
                0..6,
            ),
            count in 0u64..1_000_000,
        ) {
            let dir = tmpdir("prop");
            let store = CheckpointStore::new(&dir).unwrap();
            let mem = MemTransport::new();
            let m = SnapshotMeta { mode_tag: "hyb2x4".into(), count, rank: None, nranks: 2 };
            let refs: Vec<(&str, FieldSource<'_>)> = fields
                .iter()
                .map(|(n, b)| (n.as_str(), FieldSource::Bytes(b.as_slice())))
                .collect();
            store.put(&Record::Full(&m, &refs)).unwrap();
            mem.put(&Record::Full(&m, &refs)).unwrap();

            // Byte-identical records, CRC trailer included (the shared
            // golden encoder produced both)...
            let file = std::fs::read(dir.join("ckpt_master.bin")).unwrap();
            let record = mem.record_bytes(RecordKey::full(None)).unwrap();
            proptest::prop_assert_eq!(record, file);
            // ...and identical decoded snapshots through each side's reader:
            // the round-trip is byte-identical per field.
            let from_file = store.get(None, None).unwrap().unwrap();
            let from_mem = mem.get(None, None).unwrap().unwrap();
            proptest::prop_assert_eq!(from_file, from_mem);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
