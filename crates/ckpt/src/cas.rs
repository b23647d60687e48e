//! Content-addressed checkpoint storage: chunk objects, record manifests
//! and the journaled promote transaction.
//!
//! The flat layout ([`crate::store`]) rewrites every byte of every record
//! on every save. Steady-state checkpoints of a converging computation are
//! mostly identical to the previous generation, so the dominant cost is
//! rewriting bytes that did not change. The content-addressed store (CAS)
//! splits each encoded record into chunks at the dirty-tracking boundary
//! ([`ppar_core::shared::DIRTY_CHUNK_BYTES`]), keys every chunk by a fast
//! 128-bit content digest ([`crate::digest::ChunkDigest`]) and stores each
//! distinct chunk **once**. A record becomes a *manifest*: the ordered
//! list of chunk references. Saving an unchanged page costs one digest and
//! one 20-byte manifest entry instead of one page write — repeated
//! snapshots degrade to metadata writes, and identical chunks dedupe
//! across iterations, ranks and jobs sharing one directory.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   objects/<hh>/<32-hex>   # one chunk, named by its content digest
//!                           # (hh = first two hex digits); immutable
//!   manifests/<record>      # promoted manifest per record name
//!                           # (ckpt_master.bin, ckpt_rank_3_delta_2.bin…)
//!   journal/<pid>_<n>.mft   # staging manifests of in-flight transactions
//! ```
//!
//! ## Manifest format (all integers little-endian)
//!
//! ```text
//! magic       8B  "PPARMFT1"
//! version     u32  1
//! chunk_size  u32  nominal chunk boundary at write time
//! entries     n × { digest 16B, len u32 }
//! total_len   u64  record byte length (sum of entry lens)
//! nchunks     u32  n
//! crc         u32  CRC-32 of every preceding byte
//! ```
//!
//! The counts live in the *trailer* so a transaction can append entries as
//! the record streams through it without knowing the total up front.
//!
//! ## Transaction protocol (stage → fsync → rename)
//!
//! A write stages chunks into `objects/` (tmp file + rename, idempotent —
//! two writers racing on the same content both succeed) while appending
//! entries to its private `journal/` staging file. Commit seals the
//! trailer, fsyncs the staging manifest and atomically renames it into
//! `manifests/`. A crash anywhere before the rename leaves the previous
//! record generation untouched and only an orphaned journal file behind;
//! reopening the store ignores journal files, so recovery is rollback by
//! construction. The journal file doubles as the GC pin for chunks the
//! transaction references but has not yet promoted.
//!
//! ## Garbage collection
//!
//! [`CasStore::gc`] is mark-and-sweep: mark every chunk referenced by any
//! manifest **or any journal file** (in-flight transactions are live
//! roots), then sweep unreferenced objects older than the grace window.
//! Journal files older than the grace window are crashed transactions and
//! are rolled back (deleted). The grace window ([`CasConfig::gc_grace`])
//! keeps a sweeper in one process from collecting a chunk that a writer in
//! *another* process observed as present a moment before its journal entry
//! hit the directory; within one process the global GC lock closes that
//! window exactly. GC runs on demand and automatically after a commit when
//! [`CasConfig::quota_bytes`] is set and the object volume exceeds it.

use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use ppar_core::error::{PparError, Result};
use ppar_core::shared::DIRTY_CHUNK_BYTES;
use ppar_core::sync::{AtomicU64, Mutex, Ordering, RwLock};

use crate::crc::{crc32, Crc32};
use crate::digest::ChunkDigest;

const MANIFEST_MAGIC: &[u8; 8] = b"PPARMFT1";
const MANIFEST_VERSION: u32 = 1;
/// Bytes per manifest entry: 16-byte digest + u32 length.
const ENTRY_BYTES: usize = 20;
/// Manifest header bytes: magic + version + chunk_size.
const HEADER_BYTES: usize = 16;
/// Manifest trailer bytes: total_len + nchunks + crc.
const TRAILER_BYTES: usize = 16;

/// Serializes sweeps against in-process writers: GC takes the write side,
/// transactions hold the read side across the has-chunk check and the
/// journal-entry append, so a chunk observed as present cannot vanish
/// before its pin is visible. Process-wide on purpose — several
/// [`CasStore`] handles (or several stores in one test process) share one
/// filesystem.
static GC_LOCK: RwLock<()> = RwLock::new(());

/// One manifest entry: a chunk's content key and byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Content digest keying the chunk in `objects/`.
    pub digest: ChunkDigest,
    /// Chunk byte length (≤ the store's chunk size).
    pub len: u32,
}

/// Dedup counters accumulated by the store's write paths, drained through
/// [`crate::transport::CkptTransport::take_put_stats`] into
/// [`crate::CkptStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PutStats {
    /// Novel chunks written to the object store.
    pub chunks_written: u64,
    /// Chunks found already present (store-level dedup hits).
    pub chunks_deduped: u64,
    /// Record bytes those dedup hits avoided rewriting.
    pub bytes_deduped: u64,
    /// Chunks the network dedup handshake kept off the wire (client-side
    /// counter; zero for local stores).
    pub wire_chunks_skipped: u64,
    /// Bytes that physically hit the store: novel chunk payloads plus
    /// manifest metadata.
    pub bytes_stored: u64,
}

impl PutStats {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &PutStats) {
        self.chunks_written += other.chunks_written;
        self.chunks_deduped += other.chunks_deduped;
        self.bytes_deduped += other.bytes_deduped;
        self.wire_chunks_skipped += other.wire_chunks_skipped;
        self.bytes_stored += other.bytes_stored;
    }
}

/// What one [`CasStore::gc`] sweep reclaimed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Unreferenced chunk objects removed.
    pub objects_swept: u64,
    /// Bytes those objects held.
    pub bytes_reclaimed: u64,
    /// Crashed-transaction journal files rolled back.
    pub journals_discarded: u64,
}

/// Tuning knobs for a [`CasStore`], set by whoever opens it
/// ([`CasStore::open_with`], `CheckpointStore::new_cas_with`).
#[derive(Debug, Clone)]
pub struct CasConfig {
    /// Chunk boundary for streaming writes. Defaults to
    /// [`DIRTY_CHUNK_BYTES`] so store chunks line up with the dirty
    /// tracker *and* with the wire-dedup chunking, which is what lets a
    /// clean page cost one manifest entry end to end.
    pub chunk_size: usize,
    /// Object-volume quota; exceeding it after a commit triggers GC.
    pub quota_bytes: Option<u64>,
    /// Age below which GC will not sweep objects or roll back journals.
    pub gc_grace: Duration,
    /// Fsync novel chunk objects at commit (the staged manifest is always
    /// fsynced before promote).
    pub sync_objects: bool,
}

impl Default for CasConfig {
    fn default() -> CasConfig {
        CasConfig {
            chunk_size: DIRTY_CHUNK_BYTES,
            quota_bytes: None,
            gc_grace: Duration::from_secs(60),
            sync_objects: false,
        }
    }
}

/// State shared by every clone of one [`CasStore`] handle.
#[derive(Debug)]
struct CasShared {
    stats: Mutex<PutStats>,
    /// Recycled chunk-assembly buffers (manifest staging reuses them too).
    pool: Mutex<Vec<Vec<u8>>>,
    /// Journal file name counter (unique per in-flight transaction).
    seq: AtomicU64,
    /// Running estimate of `objects/` volume for the quota check, seeded
    /// by a walk at open and maintained by writes and sweeps.
    object_bytes: AtomicU64,
}

const POOL_CAP: usize = 8;

/// A content-addressed checkpoint store rooted at one directory. Cheap to
/// clone; clones share stats, buffer pool and the quota estimate.
#[derive(Debug, Clone)]
pub struct CasStore {
    root: PathBuf,
    cfg: CasConfig,
    shared: Arc<CasShared>,
}

impl CasStore {
    /// Open (creating if needed) a content-addressed store under `root`
    /// with the default configuration.
    pub fn open(root: impl AsRef<Path>) -> Result<CasStore> {
        CasStore::open_with(root, CasConfig::default())
    }

    /// [`CasStore::open`] with an explicit configuration.
    pub fn open_with(root: impl AsRef<Path>, cfg: CasConfig) -> Result<CasStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("manifests"))?;
        fs::create_dir_all(root.join("journal"))?;
        let store = CasStore {
            root,
            cfg,
            shared: Arc::new(CasShared {
                stats: Mutex::new(PutStats::default()),
                pool: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                object_bytes: AtomicU64::new(0),
            }),
        };
        store
            .shared
            .object_bytes
            .store(store.walk_object_bytes()?, Ordering::Relaxed);
        Ok(store)
    }

    /// Does `root` already hold a content-addressed store? (Layout
    /// auto-detection: reopening an existing CAS directory must not
    /// silently fall back to flat files.)
    pub fn detect(root: impl AsRef<Path>) -> bool {
        root.as_ref().join("manifests").is_dir()
    }

    /// The store's configuration.
    pub fn config(&self) -> &CasConfig {
        &self.cfg
    }

    fn object_path(&self, digest: &ChunkDigest) -> PathBuf {
        let hex = digest.to_hex();
        self.root.join("objects").join(&hex[..2]).join(hex)
    }

    fn manifest_path(&self, name: &str) -> PathBuf {
        self.root.join("manifests").join(name)
    }

    fn journal_dir(&self) -> PathBuf {
        self.root.join("journal")
    }

    fn next_journal_path(&self) -> PathBuf {
        let n = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        self.journal_dir()
            .join(format!("{}_{n}.mft", std::process::id()))
    }

    /// Is the chunk keyed by `digest` present?
    pub fn has_chunk(&self, digest: &ChunkDigest) -> bool {
        self.object_path(digest).exists()
    }

    /// Write one chunk object if absent; returns `true` when the chunk was
    /// novel (written), `false` on a dedup hit. Idempotent under races:
    /// both writers rename identical content onto the same name.
    fn put_chunk(&self, digest: &ChunkDigest, bytes: &[u8]) -> Result<bool> {
        let path = self.object_path(digest);
        if path.exists() {
            return Ok(false);
        }
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension(format!(
            "tmp{}_{}",
            std::process::id(),
            self.shared.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if self.cfg.sync_objects {
            f.sync_data()?;
        }
        drop(f);
        fs::rename(&tmp, &path)?;
        self.shared
            .object_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(true)
    }

    /// Does a promoted manifest for record `name` exist?
    pub fn manifest_exists(&self, name: &str) -> bool {
        self.manifest_path(name).exists()
    }

    /// Load and verify the promoted manifest for record `name`.
    pub fn read_manifest(&self, name: &str) -> Result<Option<Manifest>> {
        match fs::read(self.manifest_path(name)) {
            Ok(bytes) => Manifest::decode(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Record `name` for one front-to-back read, `None` when no manifest
    /// exists.
    pub fn record_reader(&self, name: &str) -> Result<Option<ChunkReader<'_>>> {
        let manifest = self.read_manifest(name)?;
        Ok(manifest.map(|manifest| self.reader(Arc::new(manifest))))
    }

    /// The record `manifest` lists, for one front-to-back read.
    fn reader(&self, manifest: Arc<Manifest>) -> ChunkReader<'_> {
        ChunkReader {
            store: self,
            manifest,
            pos: 0,
            next: 0,
            open: None,
        }
    }

    /// Rename record `from` → `to` (manifest-level: chunk objects are
    /// shared and untouched). Missing `from` is an error, matching
    /// [`std::fs::rename`].
    pub fn rename_manifest(&self, from: &str, to: &str) -> Result<()> {
        fs::rename(self.manifest_path(from), self.manifest_path(to))?;
        Ok(())
    }

    /// Remove record `name`'s manifest (missing is fine — several group
    /// members may purge concurrently). Its chunks become garbage unless
    /// still referenced elsewhere; the next sweep reclaims them.
    pub fn remove_manifest(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.manifest_path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Names of all promoted manifests.
    pub fn list_manifests(&self) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root.join("manifests"))? {
            out.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    }

    /// Drain the accumulated dedup counters.
    pub fn take_put_stats(&self) -> PutStats {
        std::mem::take(&mut self.shared.stats.lock())
    }

    /// Current `objects/` volume estimate (exact after open or GC, drifts
    /// only by concurrent external writers).
    pub fn object_bytes(&self) -> u64 {
        self.shared.object_bytes.load(Ordering::Relaxed)
    }

    fn walk_object_bytes(&self) -> Result<u64> {
        let mut total = 0u64;
        for shard in fs::read_dir(self.root.join("objects"))? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for obj in fs::read_dir(shard.path())? {
                total += obj?.metadata()?.len();
            }
        }
        Ok(total)
    }

    /// Begin a streaming write transaction. Bytes appended through the
    /// returned [`CasTxn`] are chunked, deduped and staged; nothing is
    /// visible under any record name until [`CasTxn::commit`].
    pub fn begin(&self) -> Result<CasTxn> {
        let journal_path = self.next_journal_path();
        let file = fs::File::create(&journal_path)?;
        let mut txn = CasTxn {
            store: self.clone(),
            buf: self.take_buf(),
            journal_path,
            journal: Some(BufWriter::new(file)),
            crc: Crc32::new(),
            chunks: 0,
            total: 0,
            meta_bytes: 0,
            stats: PutStats::default(),
            staged: false,
        };
        txn.put_meta(MANIFEST_MAGIC)?;
        txn.put_meta(&MANIFEST_VERSION.to_le_bytes())?;
        txn.put_meta(&(self.cfg.chunk_size as u32).to_le_bytes())?;
        Ok(txn)
    }

    /// Begin a dedup-handshake transaction for a record whose chunk
    /// references are already known (the network wire path): the staging
    /// manifest is written and fsynced immediately — pinning every
    /// referenced chunk against GC — and [`DedupTxn::missing`] lists the
    /// chunks the caller must supply before commit.
    pub fn begin_dedup(&self, refs: &[ChunkRef], total_len: u64) -> Result<DedupTxn> {
        let sum: u64 = refs.iter().map(|r| r.len as u64).sum();
        if sum != total_len {
            return Err(PparError::InvalidPlan(format!(
                "dedup manifest announces {total_len} bytes but chunk lens sum to {sum}"
            )));
        }
        let manifest = Manifest {
            chunk_size: self.cfg.chunk_size as u32,
            total_len,
            chunks: refs.to_vec(),
        };
        let journal_path = self.next_journal_path();
        let encoded = manifest.encode();
        let mut missing = Vec::new();
        let mut stats = PutStats::default();
        {
            // Pin-before-skip: the journal must be on disk before we trust
            // any "already present" observation (see GC_LOCK).
            let _pin = GC_LOCK.read();
            fs::write(&journal_path, &encoded)?;
            let f = fs::File::open(&journal_path)?;
            f.sync_data()?;
            for (i, r) in refs.iter().enumerate() {
                if self.has_chunk(&r.digest) {
                    stats.chunks_deduped += 1;
                    stats.bytes_deduped += r.len as u64;
                } else {
                    missing.push(i as u32);
                }
            }
        }
        stats.bytes_stored += encoded.len() as u64;
        Ok(DedupTxn {
            store: self.clone(),
            journal_path,
            manifest: Arc::new(manifest),
            missing,
            next: 0,
            pending: Vec::new(),
            stats,
            committed: false,
        })
    }

    fn take_buf(&self) -> Vec<u8> {
        let mut buf = self.shared.pool.lock().pop().unwrap_or_default();
        buf.clear();
        buf.reserve(self.cfg.chunk_size);
        buf
    }

    fn recycle_buf(&self, buf: Vec<u8>) {
        // Chunk buffers are uniformly chunk-sized, so a count bound is a
        // bytes bound too.
        let mut pool = self.shared.pool.lock();
        if pool.len() < POOL_CAP && buf.capacity() <= 2 * self.cfg.chunk_size {
            pool.push(buf);
        }
    }

    fn merge_stats(&self, stats: &PutStats) {
        self.shared.stats.lock().merge(stats);
    }

    /// Run GC if a quota is configured and the object volume exceeds it.
    pub fn maybe_gc(&self) -> Result<Option<GcStats>> {
        match self.cfg.quota_bytes {
            Some(quota) if self.object_bytes() > quota => self.gc().map(Some),
            _ => Ok(None),
        }
    }

    /// Mark-and-sweep garbage collection. Marks every chunk referenced by
    /// any promoted manifest or any in-flight journal file, rolls back
    /// journal files older than the grace window, then sweeps unmarked
    /// objects older than the grace window. A chunk referenced by a live
    /// manifest can never be collected: manifests are read under the
    /// exclusive GC lock, and a manifest only ever enters `manifests/` by
    /// rename from a journal file that already pinned its chunks.
    pub fn gc(&self) -> Result<GcStats> {
        let _guard = GC_LOCK.write();
        let now = SystemTime::now();
        let old_enough = |meta: &fs::Metadata| -> bool {
            match meta.modified() {
                Ok(t) => now
                    .duration_since(t)
                    .is_ok_and(|age| age >= self.cfg.gc_grace),
                Err(_) => false,
            }
        };

        let mut live = std::collections::HashSet::new();
        for entry in fs::read_dir(self.root.join("manifests"))? {
            let entry = entry?;
            // Lenient parse: a manifest that fails full verification still
            // marks every parseable entry — GC must only ever over-mark.
            for r in parse_entries_lenient(&fs::read(entry.path())?) {
                live.insert(r.digest);
            }
        }

        let mut stats = GcStats::default();
        for entry in fs::read_dir(self.journal_dir())? {
            let entry = entry?;
            if old_enough(&entry.metadata()?) {
                // A journal this old is a crashed transaction: roll back.
                let _ = fs::remove_file(entry.path());
                stats.journals_discarded += 1;
            } else {
                for r in parse_entries_lenient(&fs::read(entry.path())?) {
                    live.insert(r.digest);
                }
            }
        }

        for shard in fs::read_dir(self.root.join("objects"))? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for obj in fs::read_dir(shard.path())? {
                let obj = obj?;
                let name = obj.file_name();
                let name = name.to_string_lossy();
                let meta = obj.metadata()?;
                let keep = match ChunkDigest::from_hex(&name) {
                    Some(d) => live.contains(&d),
                    // Stray temp from a crashed chunk write.
                    None => false,
                };
                if !keep && old_enough(&meta) && fs::remove_file(obj.path()).is_ok() {
                    stats.objects_swept += 1;
                    stats.bytes_reclaimed += meta.len();
                }
            }
        }
        let reclaimed = stats.bytes_reclaimed;
        let _ = self
            .shared
            .object_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(reclaimed))
            });
        Ok(stats)
    }
}

/// A record read front to back straight out of its chunk objects, in
/// manifest order ([`CasStore::record_reader`]): a restore reads the record
/// into wherever its bytes belong, with no record-sized buffer in between.
/// Each object must hold exactly the length its manifest entry announces.
///
/// A reader can also seek anywhere in the record (it reopens at the chunk
/// that holds the offset), and reads at an offset from any thread: how a
/// restart reads one large span of a record on several cores.
pub struct ChunkReader<'s> {
    store: &'s CasStore,
    /// Shared by every reader of the record opened from this one.
    manifest: Arc<Manifest>,
    /// Record offset of the next byte `read` returns.
    pos: u64,
    /// The next entry to open.
    next: usize,
    /// The object being read, limited to what is left of its entry.
    open: Option<std::io::Take<fs::File>>,
}

impl<'s> ChunkReader<'s> {
    /// The record's length in bytes.
    pub fn record_len(&self) -> u64 {
        self.manifest.total_len
    }

    /// Another reader of the same record, opened at byte `offset`: at the
    /// chunk object that holds it, that far into it (past the record's
    /// end, at its end).
    pub(crate) fn at(&self, offset: u64) -> std::io::Result<ChunkReader<'s>> {
        let mut reader = ChunkReader {
            store: self.store,
            manifest: Arc::clone(&self.manifest),
            pos: offset,
            next: self.manifest.chunks.len(),
            open: None,
        };
        let mut start = 0u64;
        for (i, entry) in self.manifest.chunks.iter().enumerate() {
            let end = start + entry.len as u64;
            if offset < end {
                let mut object = self.open_object(entry)?;
                object.seek(SeekFrom::Start(offset - start))?;
                reader.next = i + 1;
                reader.open = Some(object.take(end - offset));
                break;
            }
            start = end;
        }
        Ok(reader)
    }

    /// The chunk object of `entry`, refused unless it holds exactly the
    /// length the entry announces.
    fn open_object(&self, entry: &ChunkRef) -> std::io::Result<fs::File> {
        let object = fs::File::open(self.store.object_path(&entry.digest))?;
        let held = object.metadata()?.len();
        if held != entry.len as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "chunk {} holds {held} bytes, manifest expects {}",
                    entry.digest.to_hex(),
                    entry.len
                ),
            ));
        }
        Ok(object)
    }
}

impl Read for ChunkReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if let Some(object) = &mut self.open {
                match object.read(buf)? {
                    0 if !buf.is_empty() => self.open = None,
                    n => {
                        self.pos += n as u64;
                        return Ok(n);
                    }
                }
            }
            let Some(entry) = self.manifest.chunks.get(self.next) else {
                return Ok(0);
            };
            self.next += 1;
            self.open = Some(self.open_object(entry)?.take(entry.len as u64));
        }
    }
}

/// Seeking reopens the record at the target.
impl Seek for ChunkReader<'_> {
    fn seek(&mut self, to: SeekFrom) -> std::io::Result<u64> {
        let target = match to {
            SeekFrom::Start(offset) => Some(offset),
            SeekFrom::Current(delta) => self.pos.checked_add_signed(delta),
            SeekFrom::End(delta) => self.record_len().checked_add_signed(delta),
        };
        let target = target.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "seek before the start of the record",
            )
        })?;
        *self = self.at(target)?;
        Ok(target)
    }
}

/// A read at an offset opens its own reader there, so any number of
/// threads read one record at once.
impl crate::store::ReadAt for ChunkReader<'_> {
    fn read_exact_at(&self, out: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.at(offset)?.read_exact(out)
    }
}

/// Best-effort entry extraction from manifest/journal bytes: whatever
/// complete 20-byte entries lie between the header and EOF. Used only for
/// GC *marking*, where over-marking (e.g. reading a trailer as a partial
/// entry) is safe and under-marking would be a correctness bug.
fn parse_entries_lenient(bytes: &[u8]) -> Vec<ChunkRef> {
    if bytes.len() < HEADER_BYTES || &bytes[..8] != MANIFEST_MAGIC {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut i = HEADER_BYTES;
    while i + ENTRY_BYTES <= bytes.len() {
        let mut digest = [0u8; 16];
        digest.copy_from_slice(&bytes[i..i + 16]);
        out.push(ChunkRef {
            digest: ChunkDigest(digest),
            len: u32::from_le_bytes(bytes[i + 16..i + 20].try_into().unwrap()),
        });
        i += ENTRY_BYTES;
    }
    out
}

/// A decoded record manifest: the ordered chunk references that reassemble
/// one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Nominal chunk boundary at write time (informative; entry lens are
    /// authoritative).
    pub chunk_size: u32,
    /// Record byte length (always the sum of entry lens).
    pub total_len: u64,
    /// Ordered chunk references.
    pub chunks: Vec<ChunkRef>,
}

impl Manifest {
    /// Encode to the on-disk manifest format (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.chunks.len() * ENTRY_BYTES + 16);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.chunk_size.to_le_bytes());
        for r in &self.chunks {
            out.extend_from_slice(&r.digest.0);
            out.extend_from_slice(&r.len.to_le_bytes());
        }
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and fully verify one manifest (magic, version, CRC, entry
    /// count and length consistency).
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
            return Err(PparError::CorruptCheckpoint("manifest too short".into()));
        }
        if &bytes[..8] != MANIFEST_MAGIC {
            return Err(PparError::FormatMismatch {
                expected: String::from_utf8_lossy(MANIFEST_MAGIC).into_owned(),
                found: String::from_utf8_lossy(&bytes[..8]).into_owned(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != MANIFEST_VERSION {
            return Err(PparError::CorruptCheckpoint(format!(
                "manifest version {version}, expected {MANIFEST_VERSION}"
            )));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != stored {
            return Err(PparError::CorruptCheckpoint(format!(
                "manifest CRC mismatch: stored {stored:#010x}, computed {:#010x}",
                crc32(body)
            )));
        }
        let chunk_size = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let tail = bytes.len() - TRAILER_BYTES;
        let total_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap());
        let nchunks = u32::from_le_bytes(bytes[tail + 8..tail + 12].try_into().unwrap()) as usize;
        let region = &bytes[HEADER_BYTES..tail];
        if region.len() != nchunks * ENTRY_BYTES {
            return Err(PparError::CorruptCheckpoint(format!(
                "manifest announces {nchunks} chunks but entry region holds {} bytes",
                region.len()
            )));
        }
        let mut chunks = Vec::with_capacity(nchunks);
        let mut sum = 0u64;
        for e in region.chunks_exact(ENTRY_BYTES) {
            let mut digest = [0u8; 16];
            digest.copy_from_slice(&e[..16]);
            let len = u32::from_le_bytes(e[16..20].try_into().unwrap());
            sum += len as u64;
            chunks.push(ChunkRef {
                digest: ChunkDigest(digest),
                len,
            });
        }
        if sum != total_len {
            return Err(PparError::CorruptCheckpoint(format!(
                "manifest total_len {total_len} but entry lens sum to {sum}"
            )));
        }
        Ok(Manifest {
            chunk_size,
            total_len,
            chunks,
        })
    }
}

/// An in-flight streaming write transaction (see [`CasStore::begin`]).
/// Implements [`std::io::Write`] so a
/// [`crate::store::SnapshotWriter`] can encode straight into the store
/// with no whole-record buffer.
pub struct CasTxn {
    store: CasStore,
    /// Partial-chunk accumulator (pooled).
    buf: Vec<u8>,
    journal_path: PathBuf,
    journal: Option<BufWriter<fs::File>>,
    /// Running CRC over the staged manifest bytes (header + entries).
    crc: Crc32,
    chunks: u32,
    total: u64,
    meta_bytes: u64,
    stats: PutStats,
    /// Set by [`CasTxn::stage`]: ownership of the journal file has moved
    /// to the [`StagedTxn`], so Drop must not roll it back.
    staged: bool,
}

impl CasTxn {
    fn put_meta(&mut self, bytes: &[u8]) -> Result<()> {
        self.crc.update(bytes);
        self.meta_bytes += bytes.len() as u64;
        self.journal
            .as_mut()
            .expect("transaction already finished")
            .write_all(bytes)?;
        Ok(())
    }

    /// Append record bytes (chunked at the store's boundary).
    pub fn append(&mut self, mut bytes: &[u8]) -> Result<()> {
        let chunk_size = self.store.cfg.chunk_size;
        while !bytes.is_empty() {
            let want = chunk_size - self.buf.len();
            let take = want.min(bytes.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.buf.len() == chunk_size {
                self.seal_chunk()?;
            }
        }
        Ok(())
    }

    /// Seal the accumulated chunk: digest, dedup-or-write the object, and
    /// append its manifest entry to the journal so GC sees the pin before
    /// the dedup decision is acted on.
    fn seal_chunk(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let digest = ChunkDigest::of(&self.buf);
        let len = self.buf.len() as u32;
        {
            let _pin = GC_LOCK.read();
            let mut entry = [0u8; ENTRY_BYTES];
            entry[..16].copy_from_slice(&digest.0);
            entry[16..].copy_from_slice(&len.to_le_bytes());
            self.crc.update(&entry);
            self.meta_bytes += ENTRY_BYTES as u64;
            let journal = self.journal.as_mut().expect("transaction already finished");
            journal.write_all(&entry)?;
            // Entry must be visible to a cross-handle sweeper before the
            // "already present" observation below is trusted.
            journal.flush()?;
            if self.store.put_chunk(&digest, &self.buf)? {
                self.stats.chunks_written += 1;
                self.stats.bytes_stored += len as u64;
            } else {
                self.stats.chunks_deduped += 1;
                self.stats.bytes_deduped += len as u64;
            }
        }
        self.chunks += 1;
        self.total += len as u64;
        self.buf.clear();
        Ok(())
    }

    /// Stage everything for record `name`: seal the tail chunk, write the
    /// manifest trailer and fsync the staging file. The transaction is
    /// durable but **not yet visible** — [`StagedTxn::promote`] performs
    /// the atomic rename. Split out so crash injection (and the recovery
    /// proptest) can stop exactly between stage and promote.
    pub fn stage(mut self, name: &str) -> Result<StagedTxn> {
        self.seal_chunk()?;
        let mut trailer = [0u8; 12];
        trailer[..8].copy_from_slice(&self.total.to_le_bytes());
        trailer[8..].copy_from_slice(&self.chunks.to_le_bytes());
        self.crc.update(&trailer);
        let crc = self.crc.finish();
        let mut journal = self.journal.take().expect("transaction already finished");
        journal.write_all(&trailer)?;
        journal.write_all(&crc.to_le_bytes())?;
        journal.flush()?;
        journal.get_ref().sync_data()?;
        drop(journal);
        self.meta_bytes += TRAILER_BYTES as u64;
        let mut stats = self.stats;
        stats.bytes_stored += self.meta_bytes;
        let staged = StagedTxn {
            store: self.store.clone(),
            journal_path: self.journal_path.clone(),
            dst: self.store.manifest_path(name),
            total: self.total,
            stats,
        };
        // Ownership of the staged journal file moves to the StagedTxn.
        self.staged = true;
        Ok(staged)
    }

    /// Stage and promote in one step; returns the record's byte length.
    pub fn commit(self, name: &str) -> Result<u64> {
        self.stage(name)?.promote()
    }

    /// Discard the transaction (explicit form of dropping it).
    pub fn abort(self) {}
}

impl Drop for CasTxn {
    fn drop(&mut self) {
        self.journal = None;
        if !self.staged {
            // Abort or error path: roll back the staging file.
            let _ = fs::remove_file(&self.journal_path);
        }
        self.store.recycle_buf(std::mem::take(&mut self.buf));
    }
}

impl Write for CasTxn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.append(buf)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A staged (durable, invisible) transaction awaiting its atomic rename.
pub struct StagedTxn {
    store: CasStore,
    journal_path: PathBuf,
    dst: PathBuf,
    total: u64,
    stats: PutStats,
}

impl StagedTxn {
    /// Atomically promote the staged manifest under its record name, fold
    /// the dedup counters into the store and run the quota check. Returns
    /// the record's byte length.
    pub fn promote(self) -> Result<u64> {
        fs::rename(&self.journal_path, &self.dst)?;
        self.store.merge_stats(&self.stats);
        self.store.maybe_gc()?;
        Ok(self.total)
    }

    /// Abandon the staged transaction *without* cleaning up — exactly what
    /// a crash between stage and promote leaves behind. Test hook for the
    /// recovery proptest; the orphaned journal file is GC'd as a crashed
    /// transaction.
    pub fn simulate_crash(self) {
        // Leak nothing in-process, leave the journal file on disk.
    }
}

/// An in-flight dedup-handshake transaction (see [`CasStore::begin_dedup`]).
pub struct DedupTxn {
    store: CasStore,
    journal_path: PathBuf,
    manifest: Arc<Manifest>,
    missing: Vec<u32>,
    next: usize,
    /// Bytes of the next missing chunk received so far (a chunk can
    /// straddle two writes).
    pending: Vec<u8>,
    stats: PutStats,
    /// The journal was renamed into place: `Drop` has nothing to roll back.
    committed: bool,
}

impl DedupTxn {
    /// Indexes (into the manifest's chunk list) the caller must supply via
    /// [`DedupTxn::supply_chunk`], in this order, before commit.
    pub fn missing(&self) -> &[u32] {
        &self.missing
    }

    /// Supply the bytes of the next missing chunk. The content is verified
    /// against the announced digest — a transport that delivers the wrong
    /// bytes cannot poison the store.
    pub fn supply_chunk(&mut self, bytes: &[u8]) -> Result<()> {
        let Some(&idx) = self.missing.get(self.next) else {
            return Err(PparError::InvalidPlan(
                "dedup transaction: more chunks supplied than missing".into(),
            ));
        };
        let want = self.manifest.chunks[idx as usize];
        if bytes.len() != want.len as usize {
            return Err(PparError::CorruptCheckpoint(format!(
                "dedup chunk {idx}: got {} bytes, manifest expects {}",
                bytes.len(),
                want.len
            )));
        }
        let digest = ChunkDigest::of(bytes);
        if digest != want.digest {
            return Err(PparError::CorruptCheckpoint(format!(
                "dedup chunk {idx}: content digest {} does not match announced {}",
                digest.to_hex(),
                want.digest.to_hex()
            )));
        }
        if self.store.put_chunk(&digest, bytes)? {
            self.stats.chunks_written += 1;
            self.stats.bytes_stored += bytes.len() as u64;
        } else {
            // Raced with another writer staging identical content — the
            // bytes still crossed the wire, so this is not a wire skip.
            self.stats.chunks_deduped += 1;
        }
        self.next += 1;
        Ok(())
    }

    /// The first `max` bytes of the announced record, read back by digest:
    /// its header, which says whose record this is. Every leading chunk is
    /// in the store by the time the record is complete — supplied, or
    /// found present when the transaction began.
    pub fn head(&self, max: usize) -> Result<Vec<u8>> {
        let mut head = Vec::with_capacity(max);
        let chunks = self.store.reader(Arc::clone(&self.manifest));
        chunks.take(max as u64).read_to_end(&mut head)?;
        Ok(head)
    }

    /// Promote the record once every missing chunk has been supplied;
    /// returns the record's byte length.
    pub fn commit(mut self, name: &str) -> Result<u64> {
        if self.next != self.missing.len() || !self.pending.is_empty() {
            return Err(PparError::InvalidPlan(format!(
                "dedup transaction committed with {} of {} missing chunks supplied",
                self.next,
                self.missing.len()
            )));
        }
        fs::rename(&self.journal_path, self.store.manifest_path(name))?;
        self.committed = true;
        self.store.merge_stats(&self.stats);
        self.store.maybe_gc()?;
        Ok(self.manifest.total_len)
    }

    /// Discard the transaction (explicit form of dropping it).
    pub fn abort(self) {}
}

impl Drop for DedupTxn {
    fn drop(&mut self) {
        if !self.committed {
            // Abort or error path: roll back the journal.
            let _ = fs::remove_file(&self.journal_path);
        }
    }
}

/// The missing chunks' bytes written back to back, in [`DedupTxn::missing`]
/// order (how they arrive off a wire whose frames are much larger than a
/// chunk): re-sliced by the announced lengths and supplied one by one.
impl Write for DedupTxn {
    fn write(&mut self, mut bytes: &[u8]) -> std::io::Result<usize> {
        let len = bytes.len();
        while !bytes.is_empty() {
            let Some(&idx) = self.missing.get(self.next) else {
                return Err(std::io::Error::other(
                    "dedup transaction: more bytes supplied than the missing chunks hold",
                ));
            };
            let want = self.manifest.chunks[idx as usize].len as usize;
            let supplied = if self.pending.is_empty() && bytes.len() >= want {
                // Whole chunk in this write: supply without a copy.
                let (chunk, rest) = bytes.split_at(want);
                bytes = rest;
                self.supply_chunk(chunk)
            } else {
                let take = (want - self.pending.len()).min(bytes.len());
                self.pending.extend_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
                if self.pending.len() < want {
                    continue;
                }
                let chunk = std::mem::take(&mut self.pending);
                let supplied = self.supply_chunk(&chunk);
                self.pending = chunk;
                self.pending.clear();
                supplied
            };
            supplied.map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        Ok(len)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ppar_cas_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Record `name` read back whole through its chunk reader.
    fn read_record(store: &CasStore, name: &str) -> Option<Vec<u8>> {
        let mut chunks = store.record_reader(name).unwrap()?;
        let mut out = Vec::new();
        chunks.read_to_end(&mut out).unwrap();
        Some(out)
    }

    fn cfg_now() -> CasConfig {
        CasConfig {
            gc_grace: Duration::ZERO,
            ..CasConfig::default()
        }
    }

    #[test]
    fn roundtrip_and_dedup() {
        let store = CasStore::open_with(tmp("rt"), cfg_now()).unwrap();
        // Aperiodic over the chunk size, so no two chunks dedupe by accident.
        let record: Vec<u8> = (0..3 * DIRTY_CHUNK_BYTES + 100)
            .map(|i| (i ^ (i >> 8)) as u8)
            .collect();
        let mut t = store.begin().unwrap();
        t.append(&record).unwrap();
        assert_eq!(t.commit("rec_a").unwrap(), record.len() as u64);
        assert_eq!(read_record(&store, "rec_a").unwrap(), record);
        let s1 = store.take_put_stats();
        assert_eq!(s1.chunks_written, 4);
        assert_eq!(s1.chunks_deduped, 0);

        // Identical content under a second name: all chunks dedupe.
        let mut t = store.begin().unwrap();
        t.append(&record).unwrap();
        t.commit("rec_b").unwrap();
        let s2 = store.take_put_stats();
        assert_eq!(s2.chunks_written, 0);
        assert_eq!(s2.chunks_deduped, 4);
        assert_eq!(s2.bytes_deduped, record.len() as u64);
        assert_eq!(read_record(&store, "rec_b").unwrap(), record);
    }

    #[test]
    fn manifest_encode_decode() {
        let m = Manifest {
            chunk_size: 8192,
            total_len: 8192 + 77,
            chunks: vec![
                ChunkRef {
                    digest: ChunkDigest::of(b"x"),
                    len: 8192,
                },
                ChunkRef {
                    digest: ChunkDigest::of(b"y"),
                    len: 77,
                },
            ],
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(Manifest::decode(&bad).is_err());
    }

    #[test]
    fn gc_sweeps_unreferenced_only() {
        let store = CasStore::open_with(tmp("gc"), cfg_now()).unwrap();
        let rec_a: Vec<u8> = vec![1; 2 * DIRTY_CHUNK_BYTES];
        let rec_b: Vec<u8> = vec![2; 2 * DIRTY_CHUNK_BYTES];
        let mut t = store.begin().unwrap();
        t.append(&rec_a).unwrap();
        t.commit("a").unwrap();
        let mut t = store.begin().unwrap();
        t.append(&rec_b).unwrap();
        t.commit("b").unwrap();
        store.remove_manifest("b").unwrap();
        let gc = store.gc().unwrap();
        assert_eq!(gc.objects_swept, 1, "rec_b's single distinct chunk");
        assert_eq!(read_record(&store, "a").unwrap(), rec_a);
        // Nothing left to sweep.
        assert_eq!(store.gc().unwrap().objects_swept, 0);
    }

    #[test]
    fn crash_between_stage_and_promote_rolls_back() {
        let dir = tmp("crash");
        let store = CasStore::open_with(&dir, cfg_now()).unwrap();
        let gen1: Vec<u8> = vec![7; DIRTY_CHUNK_BYTES + 5];
        let mut t = store.begin().unwrap();
        t.append(&gen1).unwrap();
        t.commit("rec").unwrap();

        let gen2: Vec<u8> = vec![9; DIRTY_CHUNK_BYTES + 5];
        let mut t = store.begin().unwrap();
        t.append(&gen2).unwrap();
        t.stage("rec").unwrap().simulate_crash();

        // Reopen: previous generation intact, orphan journal present.
        let store = CasStore::open_with(&dir, cfg_now()).unwrap();
        assert_eq!(read_record(&store, "rec").unwrap(), gen1);
        let gc = store.gc().unwrap();
        assert_eq!(gc.journals_discarded, 1);
        // gen2's chunks are garbage once the journal is gone.
        assert!(store.gc().unwrap().objects_swept > 0 || gc.objects_swept > 0);
        assert_eq!(read_record(&store, "rec").unwrap(), gen1);
    }

    #[test]
    fn dedup_txn_supplies_only_missing() {
        let store = CasStore::open_with(tmp("dedup"), cfg_now()).unwrap();
        let base: Vec<u8> = (0..4 * DIRTY_CHUNK_BYTES).map(|i| (i / 7) as u8).collect();
        let mut t = store.begin().unwrap();
        t.append(&base).unwrap();
        t.commit("base").unwrap();
        store.take_put_stats();

        // One chunk mutated: the handshake must ask for exactly that one.
        let mut next = base.clone();
        next[2 * DIRTY_CHUNK_BYTES + 3] ^= 0xFF;
        let refs: Vec<ChunkRef> = next
            .chunks(DIRTY_CHUNK_BYTES)
            .map(|c| ChunkRef {
                digest: ChunkDigest::of(c),
                len: c.len() as u32,
            })
            .collect();
        let mut txn = store.begin_dedup(&refs, next.len() as u64).unwrap();
        assert_eq!(txn.missing(), &[2]);
        txn.supply_chunk(&next[2 * DIRTY_CHUNK_BYTES..3 * DIRTY_CHUNK_BYTES])
            .unwrap();
        assert_eq!(txn.commit("next").unwrap(), next.len() as u64);
        assert_eq!(read_record(&store, "next").unwrap(), next);
        let s = store.take_put_stats();
        assert_eq!(s.chunks_written, 1);
        assert_eq!(s.chunks_deduped, 3);
    }

    #[test]
    fn dedup_txn_rejects_wrong_content() {
        let store = CasStore::open_with(tmp("dedup_bad"), cfg_now()).unwrap();
        let chunk = vec![5u8; DIRTY_CHUNK_BYTES];
        let refs = [ChunkRef {
            digest: ChunkDigest::of(&chunk),
            len: chunk.len() as u32,
        }];
        let mut txn = store.begin_dedup(&refs, chunk.len() as u64).unwrap();
        let wrong = vec![6u8; DIRTY_CHUNK_BYTES];
        assert!(txn.supply_chunk(&wrong).is_err());
    }

    #[test]
    fn quota_triggers_gc() {
        let dir = tmp("quota");
        let cfg = CasConfig {
            quota_bytes: Some((DIRTY_CHUNK_BYTES as u64) * 3),
            gc_grace: Duration::ZERO,
            ..CasConfig::default()
        };
        let store = CasStore::open_with(&dir, cfg).unwrap();
        for gen in 0..4u8 {
            let rec = vec![gen; 2 * DIRTY_CHUNK_BYTES];
            let mut t = store.begin().unwrap();
            t.append(&rec).unwrap();
            t.commit("rec").unwrap();
        }
        // Each generation replaces the manifest, orphaning the previous
        // generation's chunks; the quota sweep must have kept volume near
        // one live record, not four.
        assert!(
            store.object_bytes() <= (DIRTY_CHUNK_BYTES as u64) * 4,
            "quota GC did not bound the store: {} bytes",
            store.object_bytes()
        );
        assert_eq!(
            read_record(&store, "rec").unwrap(),
            vec![3u8; 2 * DIRTY_CHUNK_BYTES]
        );
    }
}
