//! `NetTransport`: streaming checkpoint records over the fabric.
//!
//! In a real multi-process job the ranks no longer share an address space
//! — and often no disk. This module keeps the checkpoint layer's
//! [`CkptTransport`] seam intact across that boundary, and it does so
//! **streaming end-to-end**: no hop on the rank → root path (and none on
//! the root → rank restore path) ever buffers a whole record.
//!
//! * every **non-root** rank persists through a [`NetTransport`] *client*
//!   whose [`RecordSink`] is a `StreamTx`: the provided `put` drives the
//!   shared golden encoder into it, and it cuts the encoded bytes into
//!   1 MiB chunk frames as they are produced — a gigabyte-scale record
//!   costs the client one chunk buffer, not a record-sized staging `Vec`
//!   (the digest-negotiated path, which must announce the record's chunk
//!   digests before its bytes, is the one exception: it stages the record
//!   once, in a buffer reserved from the announced length);
//! * the **root** runs a [`CkptService`]: a dispatcher thread that routes
//!   each rank's requests to a dedicated per-rank *lane* thread, so four
//!   ranks checkpointing concurrently stream through four independent
//!   pipelines. A lane feeds arriving chunks straight into the durable
//!   transport's own sink (`CkptTransport::begin`) — the sink `put` would
//!   have fed from the encoder — while one running [`TrailingCrc`] pass
//!   verifies the record's own CRC: the same bytes, one verification, no
//!   decode → re-encode round trip;
//! * reads stream the merged record back root → rank through
//!   `CkptTransport::write_merged_record_at` and the same chunk protocol
//!   (the restart and reshape path). The client has **one receive loop**
//!   (`NetTransport::fetch_merged`): request, chunk stream, the record's
//!   CRC on the pass that consumes each block, a pinned read's safe point
//!   checked on the record's head before a byte is handed on. Both read
//!   shapes are written over it. `with_merged` — what a run's restore
//!   calls — collects the blocks and lends a view over them; the
//!   collecting buffer is reserved once, from the length of the last full
//!   record the client moved. `write_merged_record_at` — what a level
//!   that relays a record calls — forwards each block straight to the
//!   caller's sink: the record crosses the client in one pass, with no
//!   record-sized buffer, decode or re-encode of its own.
//!
//! Because the record bytes are produced by the same encoder on every
//! rank, a shard streamed over TCP is byte-identical to the file a local
//! save of the same state would have produced — state migrates between
//! processes without any re-serialisation layer. This is also the
//! rank-state **migration** primitive measured by the loopback bench.
//!
//! ## Stream protocol
//!
//! The service takes four requests on `REQ_TAG`, one per seam call that
//! crosses the wire; every request but the stop names its chain in its body
//! (`rank` is a `u32`, `0xFFFF_FFFF` for the master chain; integers are
//! little-endian):
//!
//! ```text
//! PUT        [1][stream id u32][rank][seq u32][length hint u64]
//! PUT_DEDUP  [2][stream id u32][rank][seq u32][length hint u64]
//!            [count u32][count × (digest 16B, length u32)]
//! GET        [3][stream id u32][rank]  or, pinned,  [...][at u64]
//! STOP       [4]                       (self-addressed only)
//! ```
//!
//! `seq` is the delta's position in its chain, and 0 names the full record
//! (positions start at 1). A put is its begin request followed by chunk
//! frames on the stream's own data tag.
//! Every chunk frame carries a one-byte marker prefix: `CH_DATA` bytes,
//! `CH_END` record complete, `CH_ABORT` sender failed mid-record
//! (message follows). The receiver grants flow-control *credits* — the
//! cumulative count of chunks it has consumed — on the stream's credit
//! tag, one per `CREDIT_BATCH` chunks plus a final credit at stream
//! end; the sender keeps at most `STREAM_WINDOW` chunks in flight, so
//! per-stream buffering is bounded (8 MiB a side) regardless of record
//! size, and a 16 MiB record is sixteen frames deep in the encode → socket
//! → sink pipeline instead of four. The service answers a put with a fixed nine-byte
//! `[status][bytes written]` response once the record is committed (or
//! discarded). A put whose record the root's store refuses at its begin
//! is answered on the credit tag first, in place of the first credit: the
//! count `u64::MAX`, then the store's error. The sender returns that error
//! at its next credit wait, having sent at most one window, and ends the
//! stream with `CH_ABORT` (a record shorter than a window has already
//! ended it); the lane drains the stream to that terminal marker, so no
//! stale frame stays in a mailbox, and then answers the put with the
//! error. A `get` streams the same chunk protocol in the other
//! direction, with `CH_ABSENT` standing in for "no record".
//!
//! Data chunks ride on raw-payload frames ([`TAG_RAW_PAYLOAD_BIT`]): the
//! frame-level CRC covers the tag and the marker byte only, because the
//! record bytes are already protected end-to-end by the record's own
//! trailing CRC — one checksum pass per byte on each side, not two.
//!
//! ## Failure containment
//!
//! A lane in trouble must never wedge its peer: if the durable sink fails
//! mid-stream, the lane keeps receiving and crediting (discarding the
//! bytes) until the stream ends, then reports the failure in the
//! response; a sink the store refuses to begin stops the client within
//! one window instead (see above). A CRC mismatch or a client abort
//! discards the partial record through [`RecordSink::abort`] — the
//! previously installed record for that chain is untouched. A client that dies mid-stream
//! takes only its own lane down; the other ranks' pipelines keep
//! flowing.
//!
//! ## Tag space
//!
//! Checkpoint frames run under [`CKPT_TAG_BIT`] (bit 62). User messages
//! carry bit 63 and collective tags stay far below bit 62, so checkpoint
//! traffic can never cross-match either. Stream frames additionally
//! carry a per-stream 32-bit id (drawn from a process-wide counter) in
//! the tag's low bits, so a stale frame from an aborted stream can never
//! be mistaken for part of a later one.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{mpsc, Arc};

use ppar_ckpt::store::SnapshotMeta;
use ppar_ckpt::transport::{clamp_record_hint, CkptTransport, RecordKey, RecordSink, Superseded};
use ppar_ckpt::{ChunkDigest, ChunkRef, PutStats, SnapshotView, TrailingCrc};
use ppar_core::error::{PparError, Result};
use ppar_core::shared::DIRTY_CHUNK_BYTES;
use ppar_core::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

use crate::fabric::{Fabric, Payload};
use crate::frame::TAG_RAW_PAYLOAD_BIT;

/// Tag-space bit reserved for checkpoint service frames.
pub const CKPT_TAG_BIT: u64 = 1 << 62;
/// Requests rank → root.
const REQ_TAG: u64 = CKPT_TAG_BIT | 0x10;
/// Responses root → rank.
const RSP_TAG: u64 = CKPT_TAG_BIT | 0x11;

/// Wire sentinel for "master chain" where a rank number is expected.
const MASTER_SENTINEL: u32 = 0xFFFF_FFFF;

// Request opcodes: one per seam call that crosses the wire. The key rides
// in the request body (see the module docs for the layouts).
/// Streamed put of one record.
const OP_PUT: u8 = 1;
/// Digest-negotiated full-snapshot put: the client announces the record's
/// chunk digests first; the service answers with the indices its store
/// lacks, and only those chunks ride the wire. Falls back to the plain
/// streamed put when the root's durable transport has no
/// content-addressed store behind it.
const OP_PUT_DEDUP: u8 = 2;
/// Read of one chain's merged record. A pinned read (the recovery path)
/// must be answered with the record exactly at the requested safe point,
/// or fail — never a newer (torn) or older generation.
const OP_GET: u8 = 3;
/// Service shutdown, only ever self-addressed.
const OP_STOP: u8 = 4;

// Response status bytes.
const ST_OK: u8 = 0;
const ST_ERR: u8 = 1;
/// Answer to [`OP_PUT_DEDUP`] when the root's durable transport cannot
/// install by digest (flat store): the client re-sends as a plain put and
/// caches the answer so later snapshots skip the probe.
const ST_NODEDUP: u8 = 2;

/// Bytes per dedup-negotiated chunk. Matches the store's default chunk
/// size ([`DIRTY_CHUNK_BYTES`]) so wire-installed records share chunk
/// identities with locally written ones — dedup works across ranks *and*
/// across transports.
const DEDUP_CHUNK: usize = DIRTY_CHUNK_BYTES;
/// Bytes of one dedup digest-table entry on the wire (digest + length).
const DEDUP_ENTRY: usize = 20;
/// Largest [`OP_PUT_DEDUP`] request sent. The digest table rides that one
/// request frame, not the chunk stream, so its bound is its own: 4 MiB of
/// table is a record of ~1.6 GiB; beyond that the put streams plainly.
const DEDUP_REQUEST_MAX: usize = 4 << 20;

// Stream-frame kinds, encoded at bits 40..48 of the tag (alongside the
// stream id in bits 0..32). Data kinds ride raw-payload frames.
const KIND_DATA: u64 = 1;
const KIND_CREDIT: u64 = 2;
const KIND_RDATA: u64 = 3;
const KIND_RCREDIT: u64 = 4;

// Chunk-frame marker prefixes (first payload byte of every stream frame).
const CH_DATA: u8 = 0;
const CH_END: u8 = 1;
const CH_ABORT: u8 = 2;
const CH_ABSENT: u8 = 3;

/// Record bytes per chunk frame (far below the frame payload bound, so
/// the marker byte on top always fits). A stream is a four-stage pipeline
/// (encode → socket write → socket read → sink) that fills and drains once
/// per record: at 1 MiB a 16 MiB record is sixteen stages' worth of work
/// deep, at 4 MiB half of every transfer was fill and drain. With the
/// 8-chunk window this bounds per-stream buffering at 8 MiB a side.
const STREAM_CHUNK: usize = 1 << 20;
/// Chunks in flight before the sender blocks on credits: bounds each
/// stream's buffering to `STREAM_WINDOW × STREAM_CHUNK` on either side.
const STREAM_WINDOW: u64 = 8;
/// Receivers acknowledge every `CREDIT_BATCH`th chunk (plus a final credit
/// at stream end) instead of every chunk, quartering credit-frame traffic.
/// Must stay below [`STREAM_WINDOW`] or the sender's window would wedge.
const CREDIT_BATCH: u64 = 4;
/// The credit count that refuses a put: the store's error follows it in
/// the credit frame (see the module docs).
const CREDIT_REFUSED: u64 = u64::MAX;
/// Receive-side CRC+copy interleave block: each chunk is fed to the
/// checksum and the sink in cache-resident blocks so the copy re-reads
/// what the CRC just pulled into L2 instead of sweeping DRAM twice.
const CRC_SINK_BLOCK: usize = 256 << 10;

/// Process-wide stream-id source; ids are unique per process far beyond
/// any plausible overlap window.
static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(1);

fn next_stream_id() -> u32 {
    NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed) as u32
}

/// The tag of one stream-frame kind for stream `id`. Data kinds set
/// [`TAG_RAW_PAYLOAD_BIT`] — their bulk bytes are covered by the record's
/// own trailing CRC, so the frame layer checks only tag + marker byte.
fn stream_tag(kind: u64, id: u32) -> u64 {
    let raw = if kind == KIND_DATA || kind == KIND_RDATA {
        TAG_RAW_PAYLOAD_BIT
    } else {
        0
    };
    CKPT_TAG_BIT | raw | (kind << 40) | id as u64
}

// ---------------------------------------------------------------------------
// chunked stream sender (both directions)
// ---------------------------------------------------------------------------

/// The sending half of one chunk stream: an [`io::Write`] sink that cuts
/// whatever is written into marker-prefixed chunk frames, blocking on the
/// receiver's credits once [`STREAM_WINDOW`] chunks are unacknowledged.
/// The client's put drives the golden encoder into one of these; the
/// service's get path drives `CkptTransport::write_merged_record_at` into
/// one.
struct StreamTx<'a> {
    fabric: &'a dyn Fabric,
    me: usize,
    peer: usize,
    data_tag: u64,
    credit_tag: u64,
    /// Pending chunk: a [`CH_DATA`] marker byte, then up to
    /// [`STREAM_CHUNK`] record bytes. Unallocated until the first byte of a
    /// chunk is written, so the last flush of a record (and a stream that
    /// ends up carrying only a marker) allocates nothing.
    buf: Vec<u8>,
    sent: u64,
    acked: u64,
}

impl<'a> StreamTx<'a> {
    fn new(fabric: &'a dyn Fabric, me: usize, peer: usize, id: u32, kind: u64) -> StreamTx<'a> {
        let credit_kind = if kind == KIND_DATA {
            KIND_CREDIT
        } else {
            KIND_RCREDIT
        };
        StreamTx {
            fabric,
            me,
            peer,
            data_tag: stream_tag(kind, id),
            credit_tag: stream_tag(credit_kind, id),
            buf: Vec::new(),
            sent: 0,
            acked: 0,
        }
    }

    /// Absorb one cumulative-consumed-count credit from the receiver. A
    /// refusal is the receiver's last credit frame: nothing is left to wait
    /// for, and its error is returned.
    fn recv_credit(&mut self) -> Result<()> {
        let p = self.fabric.recv(self.me, self.peer, self.credit_tag)?;
        let acked = p
            .get(0..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte credit")))
            .ok_or_else(|| PparError::Network("malformed checkpoint stream credit".into()))?;
        if acked == CREDIT_REFUSED {
            self.acked = self.sent;
            return Err(PparError::Network(format!(
                "checkpoint service on rank {}: {}",
                self.peer,
                String::from_utf8_lossy(&p[8..])
            )));
        }
        self.acked = self.acked.max(acked);
        Ok(())
    }

    /// Ship the pending chunk (no-op when empty), waiting for window
    /// room first.
    fn flush_chunk(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        // Chaos site: a rank dying between checkpoint chunks is the
        // hardest torn-write case the recovery ladder must survive.
        crate::chaos::kill_point("ckpt-stream");
        while self.sent - self.acked >= STREAM_WINDOW {
            self.recv_credit()?;
        }
        let chunk = std::mem::take(&mut self.buf);
        self.fabric
            .send(self.me, self.peer, self.data_tag, Arc::new(chunk));
        self.sent += 1;
        Ok(())
    }

    fn send_marker(&self, marker: u8, msg: &[u8]) {
        let mut p = Vec::with_capacity(1 + msg.len());
        p.push(marker);
        p.extend_from_slice(msg);
        self.fabric
            .send(self.me, self.peer, self.data_tag, Arc::new(p));
    }

    /// Flush the tail and mark the record complete.
    fn finish(&mut self) -> Result<()> {
        self.flush_chunk()?;
        self.send_marker(CH_END, &[]);
        Ok(())
    }

    /// Tell the receiver to discard the partial record.
    fn abort(&mut self, msg: &str) {
        self.send_marker(CH_ABORT, msg.as_bytes());
    }

    /// Block until the receiver has credited every sent chunk, so no
    /// credit frame of this (finished) stream is left behind in the
    /// mailbox. Terminates because the receiver counts every chunk —
    /// even ones it is discarding after a failure — and flushes a final
    /// credit at every stream end, or else refuses the stream.
    fn wait_drained(&mut self) -> Result<()> {
        while self.acked < self.sent {
            self.recv_credit()?;
        }
        Ok(())
    }
}

impl Write for StreamTx<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if bytes.is_empty() {
            return Ok(0);
        }
        if self.buf.is_empty() {
            self.buf.reserve_exact(1 + STREAM_CHUNK);
            self.buf.push(CH_DATA);
        }
        let room = 1 + STREAM_CHUNK - self.buf.len();
        let take = bytes.len().min(room);
        self.buf.extend_from_slice(&bytes[..take]);
        if take == room {
            self.flush_chunk().map_err(io::Error::other)?;
        }
        Ok(take)
    }

    /// Chunk boundaries are this sink's own business — the encoder's
    /// flushes must not force short frames.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The receiving half of one chunk stream, shared by the service's put
/// lanes and the client's get path: receives chunk frames, feeds each
/// chunk to `on_chunk`, credits it, and returns how the stream ended.
/// `on_chunk` must stay infallible-at-this-layer: a consumer that can no
/// longer use the bytes keeps accepting (and the caller keeps crediting)
/// so the sender's window never wedges.
enum StreamEnd {
    /// [`CH_END`]: record complete (verify the CRC next).
    Complete,
    /// [`CH_ABSENT`]: the service has no record for the request.
    Absent,
    /// [`CH_ABORT`]: the sender gave up; its message.
    Aborted(String),
}

fn recv_stream(
    fabric: &dyn Fabric,
    me: usize,
    peer: usize,
    id: u32,
    kind: u64,
    mut on_chunk: impl FnMut(&[u8]),
) -> Result<StreamEnd> {
    let credit_kind = if kind == KIND_DATA {
        KIND_CREDIT
    } else {
        KIND_RCREDIT
    };
    let data_tag = stream_tag(kind, id);
    let credit_tag = stream_tag(credit_kind, id);
    let mut consumed: u64 = 0;
    let mut credited: u64 = 0;
    let send_credit = |consumed: u64| {
        fabric.send(
            me,
            peer,
            credit_tag,
            Arc::new(consumed.to_le_bytes().to_vec()),
        );
    };
    // Every terminal marker flushes a final credit so the sender's
    // `wait_drained` (acked == sent) always terminates.
    loop {
        let payload = fabric.recv(me, peer, data_tag)?;
        let end = match payload.first() {
            Some(&CH_DATA) => {
                on_chunk(&payload[1..]);
                consumed += 1;
                if consumed - credited >= CREDIT_BATCH {
                    credited = consumed;
                    send_credit(consumed);
                }
                continue;
            }
            Some(&CH_END) => StreamEnd::Complete,
            Some(&CH_ABSENT) => StreamEnd::Absent,
            Some(&CH_ABORT) => {
                StreamEnd::Aborted(String::from_utf8_lossy(&payload[1..]).into_owned())
            }
            _ => {
                return Err(PparError::Network(
                    "malformed checkpoint stream frame".into(),
                ))
            }
        };
        if consumed > credited {
            send_credit(consumed);
        }
        return Ok(end);
    }
}

// ---------------------------------------------------------------------------
// client
// ---------------------------------------------------------------------------

/// Client half: a [`CkptTransport`] whose durable medium lives on the root
/// rank, reached over the fabric. One per non-root rank process.
pub struct NetTransport {
    fabric: Arc<dyn Fabric>,
    rank: usize,
    root: usize,
    /// Whether the root's durable transport can install by digest; flipped
    /// off on [`ST_NODEDUP`] so a flat-store root costs one probe per job,
    /// not one per snapshot.
    dedup_supported: AtomicBool,
    /// Length of the last full record this client announced or fetched —
    /// what [`CkptTransport::with_merged`] reserves for the next one it
    /// collects.
    record_len: AtomicU64,
    /// Client-side wire-dedup counters, drained by
    /// [`CkptTransport::take_put_stats`].
    stats: Mutex<PutStats>,
}

impl NetTransport {
    /// A client for `rank`, persisting through the service on rank 0.
    pub fn client(fabric: Arc<dyn Fabric>, rank: usize) -> NetTransport {
        assert!(rank < fabric.nranks(), "rank out of range");
        NetTransport {
            fabric,
            rank,
            root: 0,
            dedup_supported: AtomicBool::new(true),
            record_len: AtomicU64::new(0),
            stats: Mutex::new(PutStats::default()),
        }
    }

    fn service_error(&self, msg: &[u8]) -> PparError {
        PparError::Network(format!(
            "checkpoint service on rank {}: {}",
            self.root,
            String::from_utf8_lossy(msg)
        ))
    }

    /// Receive and status-check one service response. Checkpoint
    /// operations are issued serially per rank (they run at quiesced safe
    /// points), so the single response tag cannot interleave.
    fn recv_response(&self) -> Result<Payload> {
        let rsp = self.fabric.recv(self.rank, self.root, RSP_TAG)?;
        match rsp.first() {
            Some(&ST_OK) => Ok(rsp),
            Some(&ST_ERR) => Err(self.service_error(&rsp[1..])),
            _ => Err(PparError::Network("empty checkpoint response".into())),
        }
    }

    /// Send a request for `rank`'s chain — `[op][stream id][rank]` followed
    /// by `tail` — and return the id of the stream that carries its record.
    fn send_request(&self, op: u8, rank: Option<u32>, tail: &[&[u8]]) -> u32 {
        let id = next_stream_id();
        let mut req = Vec::with_capacity(9 + tail.iter().map(|b| b.len()).sum::<usize>());
        req.push(op);
        req.extend_from_slice(&id.to_le_bytes());
        req.extend_from_slice(&rank.unwrap_or(MASTER_SENTINEL).to_le_bytes());
        tail.iter().for_each(|bytes| req.extend_from_slice(bytes));
        self.fabric
            .send(self.rank, self.root, REQ_TAG, Arc::new(req));
        id
    }

    /// Send the begin request of a put for `key` (`[seq][length hint]`
    /// follow the rank, seq 0 naming the full record, then `table`) and
    /// return the stream id.
    fn send_put_begin(&self, op: u8, key: RecordKey, len_hint: u64, table: &[u8]) -> u32 {
        let seq = key.delta.unwrap_or(0).to_le_bytes();
        self.send_request(op, key.rank, &[&seq, &len_hint.to_le_bytes(), table])
    }

    /// Begin a plain streamed put: the record's bytes follow as chunk
    /// frames while they are produced.
    fn open_put(&self, key: RecordKey, len_hint: u64) -> StreamTx<'_> {
        let id = self.send_put_begin(OP_PUT, key, len_hint, &[]);
        StreamTx::new(self.fabric.as_ref(), self.rank, self.root, id, KIND_DATA)
    }

    /// End a put's chunk stream and collect the service's verdict. When
    /// `sent` is an error the service is told to discard the partial record
    /// and its (error) response is consumed, keeping the response channel
    /// aligned for the next operation.
    fn close_put(&self, mut tx: StreamTx<'_>, sent: Result<()>) -> Result<()> {
        if let Err(e) = sent.and_then(|()| tx.finish()) {
            tx.abort(&e.to_string());
            let _ = self.recv_response();
            let _ = tx.wait_drained();
            return Err(e);
        }
        // The response follows the service's last credit on the same
        // ordered channel, so draining after it never blocks for long. A
        // refused stream's response carries the refusal's error too.
        let rsp = self.recv_response();
        let drained = tx.wait_drained();
        rsp.and(drained)
    }

    /// Negotiate a full-record put by chunk digest: send the record's
    /// digest table, receive the indices the root's store is missing, and
    /// stream only those chunks. `Ok(false)` means the negotiation is
    /// unavailable (root on a flat store, or the digest table would pass
    /// [`DEDUP_REQUEST_MAX`]) — the caller falls back to the plain
    /// streamed put.
    fn put_dedup(&self, key: RecordKey, record: &[u8]) -> Result<bool> {
        if !dedup_request_fits(record.len()) {
            // A record this large gains little from saving one round's
            // chunks anyway.
            return Ok(false);
        }
        let n = record.len().div_ceil(DEDUP_CHUNK);
        let mut table = Vec::with_capacity(4 + n * DEDUP_ENTRY);
        table.extend_from_slice(&(n as u32).to_le_bytes());
        for chunk in record.chunks(DEDUP_CHUNK) {
            table.extend_from_slice(&ChunkDigest::of(chunk).0);
            table.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        }
        let id = self.send_put_begin(OP_PUT_DEDUP, key, record.len() as u64, &table);
        let rsp = self.fabric.recv(self.rank, self.root, RSP_TAG)?;
        let malformed = || PparError::Network("malformed dedup response".into());
        let missing: Vec<u32> = match rsp.first() {
            Some(&ST_NODEDUP) => {
                self.dedup_supported.store(false, Ordering::Relaxed);
                return Ok(false);
            }
            Some(&ST_ERR) => return Err(self.service_error(&rsp[1..])),
            Some(&ST_OK) => {
                let count = read_u32(rsp.get(1..).unwrap_or(&[])).map_err(|_| malformed())?;
                rsp.get(5..5 + 4 * count as usize)
                    .ok_or_else(malformed)?
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte index")))
                    .collect()
            }
            _ => return Err(PparError::Network("empty checkpoint response".into())),
        };
        // Stream the missing chunks (possibly none) back to back; the
        // service re-slices by the lengths it already holds.
        let mut tx = StreamTx::new(self.fabric.as_ref(), self.rank, self.root, id, KIND_DATA);
        let sent = missing.iter().try_for_each(|&mi| {
            let start = mi as usize * DEDUP_CHUNK;
            let chunk = record
                .get(start..record.len().min(start + DEDUP_CHUNK))
                .ok_or_else(|| PparError::Network("dedup index out of range".into()))?;
            Ok(tx.write_all(chunk)?)
        });
        self.close_put(tx, sent)?;
        self.stats.lock().wire_chunks_skipped += (n - missing.len()) as u64;
        Ok(true)
    }

    /// The one client read: request `rank`'s merged record (pinned to safe
    /// point `at`, if given), receive it as a chunk stream and hand it to
    /// `sink` in cache-resident blocks, each on the pass that folds it into
    /// the record's trailing CRC. Returns the record's length, `Ok(None)`
    /// when the root holds no such chain.
    ///
    /// A pinned read checks the safe point in the record's head — the
    /// service cuts full chunks, so the first block always holds the header
    /// — before `sink` sees a byte; that refusal is provisional until the
    /// stream ends, when a failed CRC is reported in its place. The CRC
    /// verdict can only come with the last block: on `Err`, `sink` may have
    /// been handed a prefix of the record (the whole of it, when the CRC is
    /// what failed).
    fn fetch_merged(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        sink: &mut dyn FnMut(&[u8]) -> io::Result<()>,
    ) -> Result<Option<u64>> {
        let pin = at.map(u64::to_le_bytes);
        let id = self.send_request(OP_GET, rank, &[pin.as_ref().map_or(&[], |p| &p[..])]);
        let mut crc = TrailingCrc::new();
        // `Err` is discard mode, as in `lane_put`: the loop keeps receiving
        // (and crediting) so the service's window never wedges and the
        // session stays usable; the saved failure is reported at the end.
        let mut handed: Result<()> = Ok(());
        let end = recv_stream(
            self.fabric.as_ref(),
            self.rank,
            self.root,
            id,
            KIND_RDATA,
            |chunk| {
                for block in chunk.chunks(CRC_SINK_BLOCK) {
                    if handed.is_ok() && crc.total() == 0 {
                        handed = check_pin(rank, at, block);
                    }
                    crc.update(block);
                    if handed.is_ok() {
                        handed = sink(block).map_err(PparError::from);
                    }
                }
            },
        )?;
        match end {
            StreamEnd::Complete => {}
            StreamEnd::Absent => return Ok(None),
            StreamEnd::Aborted(msg) => return Err(self.service_error(msg.as_bytes())),
        }
        // The CRC covered every block, handed on or not, and its verdict
        // comes first: a pin judged on a corrupted head is not a finding.
        let len = match crc.finish() {
            Some((len, stored, computed)) if stored == computed => len,
            _ => {
                return Err(PparError::CorruptCheckpoint(
                    "streamed restore record failed CRC verification".into(),
                ))
            }
        };
        handed?;
        self.record_len.store(len, Ordering::Relaxed);
        Ok(Some(len))
    }
}

/// Whether the digest table of a `len`-byte record fits one
/// [`OP_PUT_DEDUP`] request (`[begin, 21 bytes][count][entries]`).
fn dedup_request_fits(len: usize) -> bool {
    21 + 4 + len.div_ceil(DEDUP_CHUNK) * DEDUP_ENTRY <= DEDUP_REQUEST_MAX
}

/// Refuse a record that is not at the safe point a pinned read asked for,
/// judged by the header in the record's leading bytes `head`.
fn check_pin(rank: Option<u32>, at: Option<u64>, head: &[u8]) -> Result<()> {
    let Some(count) = at else {
        return Ok(());
    };
    let found = SnapshotMeta::of_head(head)?.count;
    if found != count {
        return Err(PparError::CorruptCheckpoint(format!(
            "service returned the {rank:?} chain at safe point {found} but the restore \
             targets {count}"
        )));
    }
    Ok(())
}

/// The wire medium's sink. A delta, or any record once the root has
/// answered [`ST_NODEDUP`], streams: the begin request goes out at once and
/// the bytes become chunk frames while they are produced — a gigabyte-scale
/// record costs the client one chunk buffer. A full record bound for a root
/// that may dedup is staged instead: the digest table must go first, so
/// this is the one path that trades a record-sized `Vec` (reserved once,
/// from the announced length) for shipping only the chunks the root does
/// not already hold.
struct NetSink<'a> {
    net: &'a NetTransport,
    key: RecordKey,
    staged: Vec<u8>,
    /// `None` while staging.
    tx: Option<StreamTx<'a>>,
    written: u64,
}

impl Write for NetSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = match &mut self.tx {
            Some(tx) => tx.write(bytes)?,
            None => self.staged.write(bytes)?,
        };
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl RecordSink for NetSink<'_> {
    fn commit(mut self: Box<Self>) -> Result<Superseded> {
        // What the record supersedes is the root's to release: it holds
        // nothing on this side.
        let (tx, sent) = match self.tx.take() {
            Some(tx) => (tx, Ok(())),
            None if self.net.put_dedup(self.key, &self.staged)? => {
                return Ok(Superseded::new(self.written))
            }
            // Root can't dedup: the record is already encoded, stream it
            // through the plain put verbatim.
            None => {
                let mut tx = self.net.open_put(self.key, self.written);
                let sent = tx
                    .write_all(&self.staged)
                    .map_err(|e| PparError::Network(e.to_string()));
                (tx, sent)
            }
        };
        self.net.close_put(tx, sent)?;
        Ok(Superseded::new(self.written))
    }

    fn abort(mut self: Box<Self>, why: &str) {
        self.discard(why);
    }
}

impl NetSink<'_> {
    /// Tell the service to drop the partial record of an open stream.
    fn discard(&mut self, why: &str) {
        if let Some(tx) = self.tx.take() {
            let _ = self
                .net
                .close_put(tx, Err(PparError::Network(why.to_string())));
        }
    }
}

impl Drop for NetSink<'_> {
    fn drop(&mut self) {
        self.discard("the record's sink was dropped");
    }
}

impl CkptTransport for NetTransport {
    fn describe(&self) -> &'static str {
        "net"
    }

    fn begin<'a>(&'a self, key: RecordKey, len_hint: u64) -> Result<Box<dyn RecordSink + 'a>> {
        if key.delta.is_none() {
            self.record_len.store(len_hint, Ordering::Relaxed);
        }
        let stage = key.delta.is_none() && self.dedup_supported.load(Ordering::Relaxed);
        let staged = if stage {
            Vec::with_capacity(clamp_record_hint(len_hint))
        } else {
            Vec::new()
        };
        Ok(Box::new(NetSink {
            net: self,
            key,
            staged,
            tx: (!stage).then(|| self.open_put(key, len_hint)),
            written: 0,
        }))
    }

    /// `fetch_merged`, collected into a buffer reserved from the length of
    /// the last full record this client moved (a chain's records keep their
    /// size from one safe point to the next; only a process's first read
    /// has nothing to go by and grows the buffer as it fills): the root has
    /// already folded the chain and the receive loop just established
    /// integrity, so the view is parsed over the received bytes with neither
    /// a second checksum sweep nor a decoded copy.
    fn with_merged(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool> {
        let hint = self.record_len.load(Ordering::Relaxed);
        let mut buf = Vec::with_capacity(clamp_record_hint(hint));
        let received = self.fetch_merged(rank, at, &mut |block| {
            buf.extend_from_slice(block);
            Ok(())
        })?;
        if received.is_none() {
            return Ok(false);
        }
        read(&SnapshotView::decode_trusted(&buf)?).map(|()| true)
    }

    /// `fetch_merged`, forwarded: each block goes to `out`
    /// as it arrives — the record the root streams *is* the checksummed
    /// merged record, so nothing is collected, decoded or re-encoded here.
    fn write_merged_record_at(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        out: &mut dyn Write,
    ) -> Result<Option<u64>> {
        self.fetch_merged(rank, at, &mut |block| out.write_all(block))
    }

    fn take_put_stats(&self) -> PutStats {
        std::mem::take(&mut *self.stats.lock())
    }
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

/// Server half: the root's checkpoint service (a dispatcher thread plus
/// one lane thread per active client rank). Stop it with
/// [`CkptService::stop`] once the job completes (also attempted on drop).
pub struct CkptService {
    fabric: Arc<dyn Fabric>,
    rank: usize,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl NetTransport {
    /// Start the root-side service on `fabric` as `rank` (the root),
    /// forwarding every received record into `inner` — the job's actual
    /// durable transport.
    pub fn serve(
        fabric: Arc<dyn Fabric>,
        rank: usize,
        inner: Arc<dyn CkptTransport>,
    ) -> CkptService {
        let loop_fabric = fabric.clone();
        let handle = std::thread::Builder::new()
            .name(format!("ppar-ckpt-service-{rank}"))
            .spawn(move || service_loop(loop_fabric, rank, inner))
            .expect("spawn checkpoint service thread");
        CkptService {
            fabric,
            rank,
            handle: Some(handle),
        }
    }
}

impl CkptService {
    /// Ask the service loop to exit and join it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.fabric
                .send(self.rank, self.rank, REQ_TAG, Arc::new(vec![OP_STOP]));
            let _ = handle.join();
        }
    }
}

impl Drop for CkptService {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// The dispatcher: routes each rank's requests to that rank's lane
/// thread, spawning lanes on first contact. Checkpoint operations are
/// serial *within* a rank but independent *across* ranks, so N ranks
/// saving concurrently stream through N parallel install pipelines.
fn service_loop(fabric: Arc<dyn Fabric>, rank: usize, inner: Arc<dyn CkptTransport>) {
    let mut lanes: HashMap<usize, mpsc::Sender<Payload>> = HashMap::new();
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    // recv_any fails only when every peer is down — at which point the
    // job is lost anyway and the root's own collectives will fail too.
    while let Ok((src, req)) = fabric.recv_any(rank, REQ_TAG) {
        // Shutdown is only ever self-addressed (from `CkptService::stop`);
        // a remote OP_STOP is answered as an unknown opcode by the lane.
        if src == rank && req.first() == Some(&OP_STOP) {
            break;
        }
        let lane = lanes.entry(src).or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            let lane_fabric = fabric.clone();
            let lane_inner = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("ppar-ckpt-lane-{rank}-{src}"))
                .spawn(move || lane_loop(lane_fabric, rank, src, lane_inner, rx))
                .expect("spawn checkpoint lane thread");
            workers.push(handle);
            tx
        });
        // Fails only if the lane thread is gone (its peer died); the
        // request is from that same dead peer, so dropping it is safe.
        let _ = lane.send(req);
    }
    drop(lanes);
    for handle in workers {
        let _ = handle.join();
    }
}

/// One request, parsed once (see the module docs for the layouts); fields
/// its opcode does not carry are zero / `None`.
struct Request {
    op: u8,
    key: RecordKey,
    /// Stream id of the chunk stream that carries the record.
    id: u32,
    /// A put's announced record length.
    len_hint: u64,
    /// A get's pinned safe point.
    at: Option<u64>,
}

fn parse_request(req: &[u8]) -> Result<Request> {
    let op = req.first().copied().unwrap_or(0);
    if !matches!(op, OP_PUT | OP_PUT_DEDUP | OP_GET) {
        return Err(PparError::Network(format!(
            "unknown checkpoint service opcode {op}"
        )));
    }
    let body = |off: usize| req.get(off..).unwrap_or(&[]);
    let rank = read_u32(body(5))?;
    let mut request = Request {
        op,
        key: RecordKey::full((rank != MASTER_SENTINEL).then_some(rank)),
        id: read_u32(body(1))?,
        len_hint: 0,
        at: None,
    };
    if op == OP_GET {
        request.at = (!body(9).is_empty())
            .then(|| read_u64(body(9)))
            .transpose()?;
    } else {
        // Chain positions start at 1: seq 0 is the full record.
        request.key.delta = Some(read_u32(body(9))?).filter(|&seq| seq != 0);
        request.len_hint = read_u64(body(13))?;
    }
    Ok(request)
}

/// One rank's install pipeline: requests arrive in order from the
/// dispatcher; puts and gets run their chunk streams directly against
/// the fabric (the dispatcher never blocks on a stream).
fn lane_loop(
    fabric: Arc<dyn Fabric>,
    root: usize,
    src: usize,
    inner: Arc<dyn CkptTransport>,
    rx: mpsc::Receiver<Payload>,
) {
    let reply = |rsp: Vec<u8>| fabric.send(root, src, RSP_TAG, Arc::new(rsp));
    while let Ok(req) = rx.recv() {
        let request = match parse_request(&req) {
            Ok(request) => request,
            Err(e) => {
                // A get is answered on its own stream — when the request
                // at least carries the stream id; without one there is no
                // channel to answer on (only a foreign client could send
                // that, and its receive will time out).
                let is_get = req.first() == Some(&OP_GET);
                match read_u32(req.get(1..).unwrap_or(&[])) {
                    Ok(id) if is_get => StreamTx::new(fabric.as_ref(), root, src, id, KIND_RDATA)
                        .abort(&e.to_string()),
                    _ if is_get => {}
                    _ => reply(error_reply(&e)),
                }
                continue;
            }
        };
        match request.op {
            OP_GET => lane_get(fabric.as_ref(), root, src, &*inner, &request),
            op => {
                let table = (op == OP_PUT_DEDUP).then(|| &req[21..]);
                lane_put(fabric.as_ref(), root, src, &*inner, &request, table);
            }
        }
    }
}

/// Parse a dedup put's digest table: `[count][count × (digest, length)]`.
fn parse_digest_table(table: &[u8]) -> Result<Vec<ChunkRef>> {
    let n = read_u32(table)? as usize;
    let entries = table
        .get(4..4 + n * DEDUP_ENTRY)
        .ok_or_else(|| PparError::Network("truncated dedup digest table".into()))?;
    Ok(entries
        .chunks_exact(DEDUP_ENTRY)
        .map(|e| ChunkRef {
            digest: ChunkDigest(e[..16].try_into().expect("16-byte digest")),
            len: u32::from_le_bytes(e[16..].try_into().expect("4-byte len")),
        })
        .collect())
}

/// Receive one record stream into the durable transport's sink for
/// `request.key`, then answer with the fixed nine-byte `[status][written]`
/// reply. The sink is fed by the wire exactly as `put` feeds it from the
/// encoder; what differs is who vouches for the bytes:
///
/// * a plain put carries the whole record, whose trailing CRC is verified
///   on the same pass that installs it;
/// * a digest-negotiated put (`table` given) first asks the sink which of
///   the announced chunks it lacks, tells the client, and receives only
///   those — integrity then rides the per-chunk digests the store verifies
///   on arrival. A sink that keeps no chunks is answered [`ST_NODEDUP`].
fn lane_put(
    fabric: &dyn Fabric,
    root: usize,
    src: usize,
    inner: &dyn CkptTransport,
    request: &Request,
    table: Option<&[u8]>,
) {
    let reply = |rsp: Vec<u8>| fabric.send(root, src, RSP_TAG, Arc::new(rsp));
    // Once the stream flows, `Err` is discard mode. A sink failure must
    // not wedge the sender's credit window: the lane keeps receiving and
    // crediting chunks, and reports the saved failure once the stream ends.
    let mut sink = inner.begin(request.key, request.len_hint);
    if let Some(table) = table {
        // The client sends nothing before it has the answer, so a failure
        // up to here is answered at once.
        let lacking = match &mut sink {
            Ok(live) => {
                parse_digest_table(table).and_then(|chunks| live.lacking(&chunks, request.len_hint))
            }
            Err(e) => return reply(error_reply(e)),
        };
        match lacking {
            Err(e) => return reply(error_reply(&e)),
            Ok(None) => return reply(vec![ST_NODEDUP]),
            Ok(Some(lacking)) => {
                let mut rsp = Vec::with_capacity(5 + 4 * lacking.len());
                rsp.push(ST_OK);
                rsp.extend_from_slice(&(lacking.len() as u32).to_le_bytes());
                for index in lacking {
                    rsp.extend_from_slice(&index.to_le_bytes());
                }
                reply(rsp);
            }
        }
    }
    if let Err(e) = &sink {
        // A plain put the store refuses: stop the client within one window.
        if refuse_stream(fabric, root, src, request.id, e).is_ok() {
            reply(error_reply(e));
        }
        return;
    }
    let mut crc = table.is_none().then(TrailingCrc::new);
    let end = recv_stream(fabric, root, src, request.id, KIND_DATA, |chunk| {
        for block in chunk.chunks(CRC_SINK_BLOCK) {
            if let Some(crc) = &mut crc {
                crc.update(block);
            }
            if let Ok(live) = &mut sink {
                if let Err(e) = live.write_all(block) {
                    sink = Err(e.into());
                }
            }
        }
    });
    let crc_ok = match crc {
        Some(crc) => matches!(crc.finish(), Some((_, stored, computed)) if stored == computed),
        None => true,
    };
    let verdict = match end {
        // Peer down mid-stream: nobody is left to answer, nothing further
        // from it can arrive, and a partial record must never install
        // (dropping the sink discards it).
        Err(_) => return,
        Ok(StreamEnd::Complete) if crc_ok => Ok(()),
        Ok(StreamEnd::Complete) => Err(PparError::CorruptCheckpoint(
            "streamed record failed CRC verification".into(),
        )),
        Ok(StreamEnd::Aborted(msg)) => {
            Err(PparError::Network(format!("client aborted record: {msg}")))
        }
        Ok(StreamEnd::Absent) => Err(PparError::Network(
            "malformed checkpoint stream frame".into(),
        )),
    };
    // The lane keeps what the record superseded: the next remote save of
    // this key claims the spare and rewrites it in place, so the answer
    // never waits for the kernel to free the old file.
    let committed = match (sink, verdict) {
        (Ok(sink), Ok(())) => sink.commit().map(Superseded::keep),
        (Ok(sink), Err(e)) => {
            sink.abort(&e.to_string());
            Err(e)
        }
        (Err(e), _) => Err(e),
    };
    reply(match committed {
        Ok(written) => {
            let mut out = Vec::with_capacity(9);
            out.push(ST_OK);
            out.extend_from_slice(&written.to_le_bytes());
            out
        }
        Err(e) => error_reply(&e),
    });
}

/// Refuse put stream `id` in place of its first credit, then drain the
/// frames its sender has in flight, up to its terminal marker. `Err` when
/// the sender is gone.
fn refuse_stream(
    fabric: &dyn Fabric,
    root: usize,
    src: usize,
    id: u32,
    e: &PparError,
) -> Result<()> {
    let mut refusal = CREDIT_REFUSED.to_le_bytes().to_vec();
    refusal.extend_from_slice(e.to_string().as_bytes());
    fabric.send(root, src, stream_tag(KIND_CREDIT, id), Arc::new(refusal));
    let data_tag = stream_tag(KIND_DATA, id);
    while fabric.recv(root, src, data_tag)?.first() == Some(&CH_DATA) {}
    Ok(())
}

/// Stream the merged record for a get request back to the client,
/// straight from the durable transport (the in-memory and file stores copy
/// through without re-encoding).
fn lane_get(
    fabric: &dyn Fabric,
    root: usize,
    src: usize,
    inner: &dyn CkptTransport,
    request: &Request,
) {
    let mut tx = StreamTx::new(fabric, root, src, request.id, KIND_RDATA);
    let finished = match inner.write_merged_record_at(request.key.rank, request.at, &mut tx) {
        Ok(Some(_)) => tx.finish().is_ok(),
        Ok(None) => {
            tx.send_marker(CH_ABSENT, &[]);
            true
        }
        Err(e) => {
            tx.abort(&e.to_string());
            true
        }
    };
    if finished {
        let _ = tx.wait_drained();
    }
}

fn error_reply(e: &PparError) -> Vec<u8> {
    let msg = e.to_string();
    let mut out = Vec::with_capacity(1 + msg.len());
    out.push(ST_ERR);
    out.extend_from_slice(msg.as_bytes());
    out
}

fn read_u32(body: &[u8]) -> Result<u32> {
    match body.get(0..4).and_then(|b| b.try_into().ok()) {
        Some(b) => Ok(u32::from_le_bytes(b)),
        None => Err(PparError::Network("truncated checkpoint request".into())),
    }
}

fn read_u64(body: &[u8]) -> Result<u64> {
    match body.get(0..8).and_then(|b| b.try_into().ok()) {
        Some(b) => Ok(u64::from_le_bytes(b)),
        None => Err(PparError::Network("truncated checkpoint request".into())),
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // delta dirty ranges are span data
mod tests {
    use super::*;
    use crate::cluster::free_loopback_addr;
    use crate::tcp::{NetConfig, TcpFabric};
    use ppar_ckpt::store::{DeltaSource, FieldSource, Record, SnapshotMeta, SnapshotWriter};
    use ppar_ckpt::{CasConfig, CheckpointStore, DeltaMeta, MemTransport};
    use ppar_core::shared::SharedVec;
    use std::path::PathBuf;
    use std::time::Duration;

    const DONE_TAG: u64 = (1 << 63) | 77;

    fn meta(count: u64, rank: Option<u32>, nranks: u32) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: "tcp2".into(),
            count,
            rank,
            nranks,
        }
    }

    /// A directory of this process's own for a root's store.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppar_net_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// [`two_rank_over`] a fresh [`MemTransport`].
    fn two_rank<R: Send>(
        client_ops: impl Fn(&NetTransport) + Sync,
        root_check: impl Fn(&MemTransport) -> R + Sync,
    ) -> R {
        two_rank_over(Arc::new(MemTransport::new()), client_ops, root_check)
    }

    /// Root serves `inner` and runs `root_check` on it after the client
    /// finishes; rank 1 runs `client_ops`. Returns what `root_check`
    /// produced.
    fn two_rank_over<T: CkptTransport + 'static, R: Send>(
        inner: Arc<T>,
        client_ops: impl Fn(&NetTransport) + Sync,
        root_check: impl Fn(&T) -> R + Sync,
    ) -> R {
        let root = free_loopback_addr().unwrap();
        let mut out = None;
        std::thread::scope(|scope| {
            let root2 = root.clone();
            let out_ref = &mut out;
            let root_check = &root_check;
            scope.spawn(move || {
                let mut cfg = NetConfig::new(0, 2, root2);
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let service = NetTransport::serve(dyn_fabric.clone(), 0, inner.clone());
                // Wait for the client to finish, then stop the service.
                dyn_fabric.recv(0, 1, DONE_TAG).unwrap();
                service.stop();
                *out_ref = Some(root_check(&inner));
            });
            let client_ops = &client_ops;
            scope.spawn(move || {
                let mut cfg = NetConfig::new(1, 2, root);
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let transport = NetTransport::client(dyn_fabric.clone(), 1);
                client_ops(&transport);
                dyn_fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
            });
        });
        out.unwrap()
    }

    #[test]
    fn service_reports_errors_without_dying() {
        two_rank(
            |t| {
                // A bogus opcode, and a stop from a remote rank, must come
                // back as errors, and the service must keep answering
                // afterwards.
                for op in [0xEE, OP_STOP] {
                    t.fabric.send(t.rank, t.root, REQ_TAG, Arc::new(vec![op]));
                    let err = t.recv_response().unwrap_err();
                    assert!(err.to_string().contains("opcode"), "{err}");
                }
                assert_eq!(t.get(None, None).unwrap(), None);
            },
            |_| (),
        );
    }

    /// A put the root's store refuses at its begin — a 16 MiB shard delta
    /// — stops its client within one credit window: the put returns the
    /// store's own error once the client has sent at most the request and
    /// one window of chunks (and the abort that ends the stream), and the
    /// lane drains the stream, so the client's next put goes through.
    #[test]
    fn a_refused_put_stops_its_client_within_one_window() {
        let dir = scratch_dir("refused_put");
        let store = Arc::new(CheckpointStore::new_flat(&dir).unwrap());
        let big = vec![7u8; 16 << 20];
        let dm = DeltaMeta {
            mode_tag: "tcp2".into(),
            count: 12,
            base_count: 10,
            seq: 1,
            rank: Some(1),
            nranks: 2,
        };
        two_rank_over(
            store,
            |t| {
                let before = t.fabric.traffic();
                let delta = [("G", DeltaSource::Full(FieldSource::Bytes(&big)))];
                let refused = t.put(&Record::Delta(&dm, &delta)).unwrap_err().to_string();
                assert!(refused.contains("invalid plan: shard 1 delta"), "{refused}");
                let after = t.fabric.traffic();
                let (msgs, bytes) = (after.msgs() - before.msgs(), after.bytes() - before.bytes());
                let window = STREAM_WINDOW * (1 + STREAM_CHUNK as u64);
                assert!(msgs <= 1 + STREAM_WINDOW + 1, "{msgs} frames sent");
                assert!(
                    bytes <= window + 4096,
                    "{bytes} bytes sent, window {window}"
                );
                let fields = [("G", FieldSource::Bytes(&big[..4096]))];
                t.put(&Record::Full(&meta(10, Some(1), 2), &fields))
                    .unwrap();
            },
            |_| (),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record larger than several chunk frames streams through intact
    /// and round-trips back (multi-chunk path in both directions).
    #[test]
    fn multi_chunk_record_roundtrips() {
        let len = 3 * STREAM_CHUNK + 4567;
        let payload: Vec<u8> = (0..len)
            .map(|i| (i as u32).wrapping_mul(2654435761) as u8)
            .collect();
        let p2 = payload.clone();
        two_rank(
            move |t| {
                t.put(&Record::Full(
                    &meta(7, None, 2),
                    &[("big", FieldSource::Bytes(&p2))],
                ))
                .unwrap();
                let snap = t.get(None, None).unwrap().unwrap();
                assert_eq!(snap.field("big").unwrap(), p2.as_slice());
            },
            move |inner| {
                assert_eq!(
                    inner
                        .get(None, None)
                        .unwrap()
                        .unwrap()
                        .field("big")
                        .unwrap(),
                    payload.as_slice()
                );
            },
        );
    }

    /// A dedup-negotiated put against a content-addressed root ships only
    /// the chunks the root's store is missing: the second snapshot of a
    /// mostly unchanged state skips nearly every chunk on the wire, and
    /// the restore comes back byte-identical.
    #[test]
    fn dedup_put_ships_only_novel_chunks() {
        let dir = scratch_dir("dedup");
        let store = CheckpointStore::new_cas_with(&dir, CasConfig::default()).unwrap();
        two_rank_over(
            Arc::new(store),
            |t| {
                // 32 store chunks of aperiodic payload.
                let mut payload: Vec<u8> = (0..32 * DEDUP_CHUNK)
                    .map(|i| (i ^ (i >> 8) ^ (i >> 16)) as u8)
                    .collect();
                t.put(&Record::Full(
                    &meta(4, None, 2),
                    &[("G", FieldSource::Bytes(&payload))],
                ))
                .unwrap();
                // Empty store: nothing to skip.
                assert_eq!(t.take_put_stats().wire_chunks_skipped, 0);

                // Dirty one chunk, advance the safe point, save again:
                // only the header chunk, the dirtied chunk (straddling at
                // most two store chunks) and the CRC tail are novel.
                for b in &mut payload[5 * DEDUP_CHUNK..6 * DEDUP_CHUNK] {
                    *b ^= 0xFF;
                }
                let written = t
                    .put(&Record::Full(
                        &meta(8, None, 2),
                        &[("G", FieldSource::Bytes(&payload))],
                    ))
                    .unwrap();
                let n_chunks = written.div_ceil(DEDUP_CHUNK as u64);
                let skipped = t.take_put_stats().wire_chunks_skipped;
                assert!(
                    skipped >= n_chunks - 5,
                    "expected ≥{} wire chunks skipped, got {skipped}",
                    n_chunks - 5
                );

                // Restore is byte-identical state.
                let snap = t.get(None, None).unwrap().unwrap();
                assert_eq!(snap.count, 8);
                assert_eq!(snap.field("G").unwrap(), payload.as_slice());
            },
            |_| (),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite: a chunk corrupted in flight (after the frame layer —
    /// simulated by corrupting before sending, since raw frames leave
    /// bulk bytes to the record CRC) must be rejected by the service's
    /// streaming CRC check, install nothing, and leave the service
    /// serving.
    #[test]
    fn mid_stream_corruption_is_rejected_without_partial_install() {
        two_rank(
            |t| {
                // Encode a checksummed record with the golden writer, then
                // flip one byte in the middle.
                let payload = vec![0xA5u8; 40_000];
                let mut w = SnapshotWriter::new(Vec::new(), &meta(3, None, 2), 1).unwrap();
                w.field("G", &FieldSource::Bytes(&payload)).unwrap();
                let (_, mut record) = w.finish().unwrap();
                let mid = record.len() / 2;
                record[mid] ^= 0x40;

                // Hand-drive the stream protocol at the frame level.
                let id = next_stream_id();
                let mut req = Vec::with_capacity(21);
                req.push(OP_PUT);
                req.extend_from_slice(&id.to_le_bytes());
                req.extend_from_slice(&MASTER_SENTINEL.to_le_bytes());
                req.extend_from_slice(&0u32.to_le_bytes());
                req.extend_from_slice(&(record.len() as u64).to_le_bytes());
                t.fabric.send(t.rank, t.root, REQ_TAG, Arc::new(req));
                let data_tag = stream_tag(KIND_DATA, id);
                for chunk in record.chunks(16_000) {
                    let mut p = Vec::with_capacity(1 + chunk.len());
                    p.push(CH_DATA);
                    p.extend_from_slice(chunk);
                    t.fabric.send(t.rank, t.root, data_tag, Arc::new(p));
                }
                t.fabric
                    .send(t.rank, t.root, data_tag, Arc::new(vec![CH_END]));
                let err = t.recv_response().unwrap_err();
                assert!(err.to_string().contains("CRC"), "{err}");
                // Drain this stream's credits so nothing lingers.
                let credit_tag = stream_tag(KIND_CREDIT, id);
                while t.fabric.probe(t.rank, t.root, credit_tag) {
                    t.fabric.recv(t.rank, t.root, credit_tag).unwrap();
                }

                // No partial install, and the service still works.
                assert_eq!(t.get(None, None).unwrap(), None);
                t.put(&Record::Full(
                    &meta(5, None, 2),
                    &[("G", FieldSource::Bytes(&payload))],
                ))
                .unwrap();
                assert_eq!(t.get(None, None).unwrap().unwrap().count, 5);
            },
            |inner| {
                assert_eq!(inner.get(None, None).unwrap().unwrap().count, 5);
            },
        );
    }

    /// The restore-direction twin: a flat-backed root copies a record file
    /// through unparsed, so the client is the only verifier of what it
    /// serves. A byte flipped in the file is refused by both read shapes
    /// (`read` never runs), pinned or not, a pin the root cannot serve errs
    /// before a byte reaches the sink, and the session keeps working
    /// afterwards.
    #[test]
    fn record_corrupted_at_the_root_is_rejected_by_both_read_shapes() {
        let dir = scratch_dir("corrupt_restore");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let payload: Vec<u8> = (0..2 * STREAM_CHUNK + 999).map(|i| (i * 7) as u8).collect();
        let put = |t: &NetTransport, count: u64| {
            t.put(&Record::Full(
                &meta(count, None, 2),
                &[("G", FieldSource::Bytes(&payload))],
            ))
            .unwrap()
        };
        two_rank_over(
            Arc::new(store),
            |t| {
                let written = put(t, 3);
                let file = dir.join("ckpt_master.bin");
                let mut bytes = std::fs::read(&file).unwrap();
                assert_eq!(bytes.len() as u64, written);
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
                std::fs::write(&file, &bytes).unwrap();

                let mut reads = 0;
                let lent = t.with_merged(None, None, &mut |_| {
                    reads += 1;
                    Ok(())
                });
                assert!(matches!(lent, Err(PparError::CorruptCheckpoint(_))));
                assert_eq!(reads, 0);
                // The stream's verdict comes with the last block: the sink
                // holds what was forwarded, the call is what says no.
                let mut out = Vec::new();
                let streamed = t.write_merged_record_at(None, None, &mut out);
                assert!(matches!(streamed, Err(PparError::CorruptCheckpoint(_))));
                assert!(out.len() as u64 <= written);
                let pinned = t.write_merged_record_at(None, Some(3), &mut Vec::new());
                assert!(matches!(pinned, Err(PparError::CorruptCheckpoint(_))));

                // A pinned read at a safe point the root does not hold.
                let mut out = Vec::new();
                assert!(t.write_merged_record_at(None, Some(4), &mut out).is_err());
                assert!(out.is_empty());

                // Same session, next generation: both directions work, a
                // sink that gives up on its first block included.
                put(t, 5);
                let mut small = [0u8; 16];
                let gave_up = t.write_merged_record_at(None, None, &mut &mut small[..]);
                assert!(gave_up.is_err());
                let mut out = Vec::new();
                let streamed = t.write_merged_record_at(None, Some(5), &mut out);
                assert_eq!(streamed.unwrap(), Some(out.len() as u64));
                assert_eq!(out, std::fs::read(&file).unwrap());
                let snap = t.get(None, None).unwrap().unwrap();
                assert_eq!((snap.count, snap.field("G").unwrap()), (5, &payload[..]));
            },
            |_| (),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rank 1 runs `client_op` against a root played by hand: rank 0
    /// answers the one get it issues with `record` as the service would cut
    /// it, whatever was asked for. What the client then refuses, it refuses
    /// on its own checks; the root returning from `wait_drained` is the
    /// client having credited every chunk, refused or not.
    fn get_from_a_root_played_by_hand(record: &[u8], client_op: impl Fn(&NetTransport) + Sync) {
        let addr = free_loopback_addr().unwrap();
        let connect = |rank: usize| {
            let mut cfg = NetConfig::new(rank, 2, addr.clone());
            cfg.recv_timeout = Duration::from_secs(20);
            TcpFabric::connect(&cfg).unwrap()
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let fabric = connect(0);
                let req = fabric.recv(0, 1, REQ_TAG).unwrap();
                let id = read_u32(&req[1..]).unwrap();
                let mut tx = StreamTx::new(fabric.as_ref(), 0, 1, id, KIND_RDATA);
                tx.write_all(record).unwrap();
                tx.finish().unwrap();
                tx.wait_drained().unwrap();
            });
            scope.spawn(|| client_op(&NetTransport::client(connect(1), 1)));
        });
    }

    /// The client's own pin check: a record at another safe point than the
    /// one asked for is refused on its head, before the sink (or `read`)
    /// sees a byte, and the rest of the stream — longer than the credit
    /// window here — is still received and credited. The refusal stands
    /// only for a record that verifies: with a byte flipped in flight the
    /// CRC's verdict is the one reported.
    #[test]
    fn record_at_the_wrong_safe_point_is_refused_before_the_sink_sees_a_byte() {
        let payload: Vec<u8> = (0..(STREAM_WINDOW as usize + 2) * STREAM_CHUNK)
            .map(|i| (i >> 3) as u8)
            .collect();
        let mut w = SnapshotWriter::new(Vec::new(), &meta(7, Some(1), 2), 1).unwrap();
        w.field("G", &FieldSource::Bytes(&payload)).unwrap();
        let (_, mut record) = w.finish().unwrap();
        get_from_a_root_played_by_hand(&record, |t| {
            let mut out = Vec::new();
            let err = t
                .write_merged_record_at(Some(1), Some(6), &mut out)
                .unwrap_err();
            assert!(err.to_string().contains("safe point 7"), "{err}");
            assert!(out.is_empty());
        });
        get_from_a_root_played_by_hand(&record, |t| {
            let mut reads = 0;
            let lent = t.with_merged(Some(1), Some(6), &mut |_| {
                reads += 1;
                Ok(())
            });
            assert!(lent.is_err());
            assert_eq!(reads, 0);
        });
        let crc_failure = |t: &NetTransport| {
            let err = t.get(Some(1), Some(6)).unwrap_err();
            assert!(matches!(err, PparError::CorruptCheckpoint(_)));
            assert!(err.to_string().contains("CRC"), "{err}");
        };
        let mid = record.len() / 2;
        record[mid] ^= 0x40;
        get_from_a_root_played_by_hand(&record, crc_failure);
        // And when the flipped byte is in the head itself (the safe point
        // follows the magic and the mode tag), so that it reads as pinned.
        record[mid] ^= 0x40;
        record[8 + 8 + 4] = 6;
        get_from_a_root_played_by_hand(&record, crc_failure);
    }

    /// The digest table rides one request frame and has a bound of its own,
    /// not the chunk stream's: the largest table that fits is negotiated,
    /// one entry more is not, and the ceiling stays where it was when a
    /// chunk was 4 MiB (records up to ~1.6 GiB).
    #[test]
    fn dedup_table_has_its_own_bound() {
        let entries = (DEDUP_REQUEST_MAX - 21 - 4) / DEDUP_ENTRY;
        assert!(dedup_request_fits(entries * DEDUP_CHUNK));
        assert!(!dedup_request_fits(entries * DEDUP_CHUNK + 1));
        assert!(entries * DEDUP_CHUNK > 1 << 30);
    }

    proptest::proptest! {
        /// Satellite: a record streamed through the service installs
        /// byte-identically to a local put (same golden encoder at both
        /// ends) — full snapshots and sparse master deltas, both into flat
        /// stores.
        #[test]
        fn prop_streamed_install_is_byte_identical_to_buffered(
            seed in proptest::prelude::any::<u64>(),
            nfields in 1usize..4,
            len in 1usize..2500,
            patch_at in 0usize..64,
        ) {
            // Deterministic field payloads from the seed.
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let payloads: Vec<Vec<u8>> = (0..nfields)
                .map(|_| (0..len).map(|_| next() as u8).collect())
                .collect();
            let names: Vec<String> = (0..nfields).map(|i| format!("f{i}")).collect();
            let patch_at = patch_at.min(len.saturating_sub(8));
            let patch = vec![0xEEu8; 8.min(len - patch_at)];
            let fields: Vec<(&str, FieldSource<'_>)> = names
                .iter()
                .zip(&payloads)
                .map(|(n, p)| (n.as_str(), FieldSource::Bytes(p.as_slice())))
                .collect();
            let dm = DeltaMeta {
                mode_tag: "tcp2".into(),
                count: 21,
                base_count: 20,
                seq: 1,
                rank: None,
                nranks: 2,
            };
            let ranges = [patch_at..patch_at + patch.len()];
            let mut patched = payloads[0].clone();
            patched[ranges[0].clone()].copy_from_slice(&patch);
            let patched = SharedVec::from_vec(patched);
            let dirty = [(
                names[0].as_str(),
                DeltaSource::DirtyCell {
                    cell: &patched,
                    ranges: &ranges,
                },
            )];
            let put = |t: &dyn CkptTransport| {
                t.put(&Record::Full(&meta(20, None, 2), &fields)).unwrap();
                if !patch.is_empty() {
                    t.put(&Record::Delta(&dm, &dirty)).unwrap();
                }
            };
            let files = |dir: &PathBuf| {
                let read = |name: &str| std::fs::read(dir.join(name)).ok();
                (read("ckpt_master.bin"), read("ckpt_master_delta_1.bin"))
            };

            let root_dir = scratch_dir("prop_root");
            let root = Arc::new(CheckpointStore::new_flat(&root_dir).unwrap());
            let streamed = two_rank_over(root, |t| put(t), |_| files(&root_dir));
            // The local path: the same puts against a flat store of its own.
            let local_dir = scratch_dir("prop_local");
            put(&CheckpointStore::new_flat(&local_dir).unwrap());
            proptest::prop_assert_eq!(streamed, files(&local_dir));
            let _ = std::fs::remove_dir_all(&root_dir);
            let _ = std::fs::remove_dir_all(&local_dir);
        }
    }

    /// Satellite: four ranks checkpoint concurrently through independent
    /// lanes — two shard records each, interleaved — while a fifth dies
    /// mid-stream. Survivors' records land intact; the dead rank installs
    /// nothing.
    #[test]
    fn concurrent_rank_pipelines_survive_mid_stream_peer_death() {
        const N: usize = 6; // root + 4 savers + 1 casualty
        let root_addr = free_loopback_addr().unwrap();
        std::thread::scope(|scope| {
            let addr = &root_addr;
            scope.spawn(move || {
                let mut cfg = NetConfig::new(0, N, addr.clone());
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                let dir = scratch_dir("pipelines");
                let inner: Arc<dyn CkptTransport> =
                    Arc::new(CheckpointStore::new_flat(&dir).unwrap());
                let service = NetTransport::serve(dyn_fabric.clone(), 0, inner.clone());
                for src in 1..N - 1 {
                    dyn_fabric.recv(0, src, DONE_TAG).unwrap();
                }
                service.stop();
                for r in 1..(N - 1) as u32 {
                    let snap = inner.get(Some(r), None).unwrap().unwrap();
                    assert_eq!(snap.count, 100 + r as u64);
                    let g = snap.field("G").unwrap();
                    assert_eq!(g.len(), 200_000);
                    assert!(g[..8].iter().all(|&b| b == 0xC0 + r as u8));
                    assert!(g[8..16].iter().all(|&b| b == r as u8));
                }
                // The casualty never completed its stream: no partial
                // record may exist.
                assert!(inner.get(Some((N - 1) as u32), None).unwrap().is_none());
                let _ = std::fs::remove_dir_all(&dir);
            });
            for rank in 1..N - 1 {
                scope.spawn(move || {
                    let mut cfg = NetConfig::new(rank, N, addr.clone());
                    cfg.recv_timeout = Duration::from_secs(20);
                    let fabric = TcpFabric::connect(&cfg).unwrap();
                    let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
                    let t = NetTransport::client(dyn_fabric.clone(), rank);
                    let r = rank as u32;
                    let base = vec![r as u8; 200_000];
                    t.put(&Record::Full(
                        &meta(99, Some(r), N as u32),
                        &[("G", FieldSource::Bytes(&base))],
                    ))
                    .unwrap();
                    let mut next = base;
                    next[..8].fill(0xC0 + r as u8);
                    t.put(&Record::Full(
                        &meta(100 + r as u64, Some(r), N as u32),
                        &[("G", FieldSource::Bytes(&next))],
                    ))
                    .unwrap();
                    // Concurrent restore while other lanes still stream.
                    let merged = t.get(Some(r), None).unwrap().unwrap();
                    assert_eq!(merged.count, 100 + r as u64);
                    dyn_fabric.send(rank, 0, DONE_TAG, Arc::new(Vec::new()));
                });
            }
            scope.spawn(move || {
                // The casualty: begins a shard stream, ships one chunk,
                // and dies without an end marker.
                let rank = N - 1;
                let mut cfg = NetConfig::new(rank, N, addr.clone());
                cfg.recv_timeout = Duration::from_secs(20);
                let fabric = TcpFabric::connect(&cfg).unwrap();
                let id = next_stream_id();
                let mut req = Vec::with_capacity(21);
                req.push(OP_PUT);
                req.extend_from_slice(&id.to_le_bytes());
                req.extend_from_slice(&(rank as u32).to_le_bytes());
                req.extend_from_slice(&0u32.to_le_bytes());
                req.extend_from_slice(&1_000_000u64.to_le_bytes());
                fabric.send(rank, 0, REQ_TAG, Arc::new(req));
                let mut chunk = vec![CH_DATA];
                chunk.extend_from_slice(&[0x77u8; 50_000]);
                fabric.send(rank, 0, stream_tag(KIND_DATA, id), Arc::new(chunk));
                // Dropping the fabric closes the connections: death.
            });
        });
    }

    /// The inode `path` names, if it exists.
    #[cfg(unix)]
    fn ino(path: &std::path::Path) -> Option<u64> {
        use std::os::unix::fs::MetadataExt;
        std::fs::metadata(path).ok().map(|m| m.ino())
    }

    /// The names in `dir`, sorted.
    #[cfg(unix)]
    fn names(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The payload of the save at safe point `count`: a few stream chunks,
    /// different at every count.
    #[cfg(unix)]
    fn payload(count: u64) -> Vec<u8> {
        (0..3 * STREAM_CHUNK + 101)
            .map(|i| (i as u64 * 7 + count) as u8)
            .collect()
    }

    /// Save `payload(count)` under the key `rank` names.
    #[cfg(unix)]
    fn save(t: &NetTransport, count: u64, rank: Option<u32>) {
        let bytes = payload(count);
        t.put(&Record::Full(
            &meta(count, rank, 2),
            &[("G", FieldSource::Bytes(&bytes))],
        ))
        .unwrap();
    }

    /// A lane keeps what its commit superseded: from the third remote save
    /// of a key on, the root publishes the very file that key's last save
    /// retired, the root holds the record plus at most one spare, and
    /// every restore comes back CRC-verified and byte-equal.
    #[cfg(unix)]
    #[test]
    fn lane_rewrites_the_spare_its_last_save_left() {
        let dir = scratch_dir("lane_recycle");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let record = dir.join("ckpt_master.bin");
        let spare = dir.join("ckpt_master.bin.spare");
        two_rank_over(
            Arc::new(store),
            |t| {
                for count in 1..=5 {
                    let claimable = ino(&spare);
                    save(t, count, None);
                    if count >= 3 {
                        assert!(claimable.is_some(), "save {count}: no spare on the root");
                        assert_eq!(ino(&record), claimable, "save {count}: spare not rewritten");
                    }
                    let left = names(&dir);
                    assert!(
                        left == ["ckpt_master.bin"]
                            || left == ["ckpt_master.bin", "ckpt_master.bin.spare"],
                        "save {count} left {left:?}"
                    );
                    let snap = t.get(None, None).unwrap().unwrap();
                    assert_eq!(snap.count, count);
                    assert!(snap.field("G").unwrap() == payload(count).as_slice());
                }
            },
            |_| (),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A client's first save asks a flat root the dedup question, which
    /// the lane can only refuse: the sink it began — over the key's spare —
    /// is dropped untouched, so the spare keeps its file, and the plain
    /// stream that follows claims it.
    #[cfg(unix)]
    #[test]
    fn lane_refusing_dedup_gives_the_spare_back() {
        let dir = scratch_dir("lane_nodedup_spare");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        for count in 1..=2 {
            let bytes = payload(count);
            let mut w = SnapshotWriter::new(Vec::new(), &meta(count, None, 2), 1).unwrap();
            w.field("G", &FieldSource::Bytes(&bytes)).unwrap();
            let (_, encoded) = w.finish().unwrap();
            let mut sink = store.begin(RecordKey::full(None), 0).unwrap();
            sink.write_all(&encoded).unwrap();
            sink.commit().unwrap().keep();
        }
        let record = dir.join("ckpt_master.bin");
        let spare = ino(&dir.join("ckpt_master.bin.spare"));
        assert!(spare.is_some(), "the direct commits left no spare");
        two_rank_over(
            Arc::new(store),
            |t| {
                assert!(t.dedup_supported.load(Ordering::Relaxed));
                save(t, 3, None);
                assert!(!t.dedup_supported.load(Ordering::Relaxed), "not refused");
                assert_eq!(ino(&record), spare, "the stream did not claim the spare");
                let snap = t.get(None, None).unwrap().unwrap();
                assert!(snap.count == 3 && snap.field("G").unwrap() == payload(3).as_slice());
            },
            |_| (),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stream that fails after its lane claimed the key's spare — the
    /// client aborts mid-record, or the record fails its CRC — leaves the
    /// committed record untouched and readable and no temp file (the
    /// claimed spare goes with it), and the next save succeeds.
    #[cfg(unix)]
    #[test]
    fn lane_failure_over_a_claimed_spare_leaves_the_record() {
        let dir = scratch_dir("lane_claimed_fail");
        let store = CheckpointStore::new_flat(&dir).unwrap();
        let record = dir.join("ckpt_master.bin");
        let spare = dir.join("ckpt_master.bin.spare");
        two_rank_over(
            Arc::new(store),
            |t| {
                save(t, 1, None);
                save(t, 2, None);
                for (count, corrupt) in [(3, false), (4, true)] {
                    let committed = std::fs::read(&record).unwrap();
                    assert!(spare.exists(), "no spare for the lane to claim");
                    let bytes = payload(9);
                    let mut w = SnapshotWriter::new(Vec::new(), &meta(9, None, 2), 1).unwrap();
                    w.field("G", &FieldSource::Bytes(&bytes)).unwrap();
                    let (_, mut encoded) = w.finish().unwrap();
                    // A flat root refused the first save's dedup question,
                    // so this sink streams: the lane has begun (and claimed
                    // the spare) before the first byte.
                    let mut sink = t
                        .begin(RecordKey::full(None), encoded.len() as u64)
                        .unwrap();
                    if corrupt {
                        let mid = encoded.len() / 2;
                        encoded[mid] ^= 0x40;
                        sink.write_all(&encoded).unwrap();
                        let err = sink.commit().unwrap_err();
                        assert!(err.to_string().contains("CRC"), "{err}");
                    } else {
                        sink.write_all(&encoded[..encoded.len() / 2]).unwrap();
                        sink.abort("the saver gave up");
                    }
                    assert!(std::fs::read(&record).unwrap() == committed);
                    assert_eq!(t.get(None, None).unwrap().unwrap().count, count - 1);
                    let left = names(&dir);
                    assert_eq!(left, ["ckpt_master.bin"], "the claimed spare is left over");
                    save(t, count, None);
                    let snap = t.get(None, None).unwrap().unwrap();
                    assert_eq!(snap.count, count);
                    assert!(snap.field("G").unwrap() == payload(count).as_slice());
                }
            },
            |_| (),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Local-snapshot shards through a lane: once the group has committed
    /// a shard's record, its next save claims the `_prev` its rotation
    /// evicts and rewrites it, and a pinned read at the last group commit
    /// still serves the previous generation from the new `_prev`.
    #[cfg(unix)]
    #[test]
    fn lane_recycled_shard_keeps_its_previous_generation() {
        let dir = scratch_dir("lane_shard_prev");
        let store = Arc::new(CheckpointStore::new_flat(&dir).unwrap());
        let shard = dir.join("ckpt_rank_1.bin");
        let prev = dir.join("ckpt_rank_1_prev.bin");
        two_rank_over(
            store.clone(),
            |t| {
                for count in 1..=5 {
                    let claimable = ino(&prev);
                    save(t, count, Some(1));
                    if count >= 3 {
                        assert!(claimable.is_some(), "save {count}: no `_prev` on the root");
                        assert_eq!(
                            ino(&shard),
                            claimable,
                            "save {count}: `_prev` not rewritten"
                        );
                    }
                    if count >= 2 {
                        let prev = t.get(Some(1), Some(count - 1)).unwrap().unwrap();
                        assert_eq!(prev.count, count - 1);
                        assert!(prev.field("G").unwrap() == payload(count - 1).as_slice());
                    }
                    store.commit_group(count).unwrap();
                }
            },
            |_| (),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
