//! # ppar-ckpt — pluggable application-level checkpointing
//!
//! Implements §IV.A of *Checkpoint and Run-Time Adaptation with Pluggable
//! Parallelisation* (Medeiros & Sobral, ICPP 2011): the programmer declares
//! `SafeData`, `SafePoints` and `IgnorableMethods` in the plan (next to, not
//! inside, the sequential base code), and this crate provides everything
//! else —
//!
//! * a portable binary snapshot format ([`store`]) with CRC-32 integrity
//!   and atomic replacement — every cell announces `byte_len` and streams
//!   its own little-endian layout through `write_state`, no generic object
//!   serializer sits in between;
//! * a pluggable byte **transport** ([`transport`]): one provided `put`
//!   streams a [`Record`] into whichever medium's sink — disk
//!   ([`CheckpointStore`], always read CRC-verified; the one medium that
//!   still writes and folds a delta chain, for the direct callers and the
//!   directories older builds left) or process memory ([`MemTransport`]:
//!   whole records, for the survivor-local mirror and benches);
//! * the live-reshape **hand-off** ([`handoff`]): a [`Handoff`] keeps the
//!   predecessor's frozen cells, and the successor lends them, its replay
//!   target and its resume cursor through the hand-off's own methods;
//! * dirty-chunk **incremental** snapshots: every save writes only the
//!   bytes changed since the record its file held, and the [`delta`]
//!   records older builds chained are still read;
//! * the safe-point clock and snapshot policy ([`hook::CheckpointModule`]);
//! * failure detection at start-up (run marker + snapshot ⇒ replay);
//! * replay-based restart: the application re-executes with ignorable
//!   methods skipped until the checkpointed safe-point count, then loads the
//!   saved data and continues — rebuilding the call stack entirely at
//!   application level.
//!
//! Launching — crash/restart cycles in any mode, `Deploy::Seq` included —
//! is `ppar_adapt::launch`'s job; this crate only provides the module it
//! plugs in.
//!
//! Because master-collected checkpoint data is mode-independent, a snapshot
//! taken in any execution mode can restart in any other — the basis for
//! adaptation-by-restart (Fig. 6 of the paper).
//!
//! ## Incremental (dirty-chunk) checkpointing
//!
//! Snapshot cost scales with the data *touched* between safe points
//! instead of the data held: shared containers track writes in an 8
//! KiB-chunk bitmap ([`ppar_core::shared::DIRTY_CHUNK_BYTES`]), and every
//! save — master or shard, whatever the plan — is one full record that,
//! once its key's file holds one of the module's last two records, writes
//! only the ranges changed since and skips the rest (see [`hook`]). So a
//! restart reads one record, never a chain. `Plug::IncrementalCkpt` no
//! longer changes what a save writes; it stays parseable for the plans
//! that name it.
//!
//! * **Delta records** — what older builds wrote under that plug: a chain
//!   of `ckpt_master_delta_<seq>.bin` records over a base, each with its
//!   own magic (`"PPARDLT1"`) and format version
//!   ([`delta::DELTA_VERSION`]), a field either whole or a sparse
//!   `(offset, len)` chunk map plus the chunk bytes. The store still
//!   writes them for a direct [`CkptTransport::put_master_delta`] and
//!   reads them: [`CkptTransport::with_merged`] folds base + chain (last
//!   writer wins per byte, every record CRC-verified) into a state
//!   byte-identical to a full snapshot, and a restart replays to the last
//!   delta's safe point. The next master commit retires the chain; the
//!   store refuses a shard delta key. See [`delta`] for the byte layout.
//! * **Distributed gathers** — in master-collect mode, every save after
//!   the first of an attempt (and after a restore) gathers only each
//!   element's *dirty ranges* (clamped to its owned block) at the root,
//!   whose write tracking then reflects exactly the aggregate's touched
//!   chunks — so a patched record and its block CRCs scale with the dirty
//!   fraction. Elements that do not persist reset their write tracking
//!   when the root saves
//!   ([`ppar_core::ctx::CkptHook::note_peer_snapshot`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cas;
pub mod crc;
pub mod delta;
pub mod digest;
pub mod handoff;
pub mod hook;
pub mod store;
pub mod transport;

pub use cas::{CasConfig, CasStore, ChunkRef, GcStats, Manifest, PutStats};
pub use crc::TrailingCrc;
pub use delta::DeltaMeta;
pub use digest::ChunkDigest;
pub use handoff::Handoff;
pub use hook::{CheckpointModule, CkptStats};
pub use store::{CheckpointStore, Record, Snapshot, SnapshotView};
pub use transport::{CkptTransport, Held, MemTransport, RecordKey, RecordSink, Superseded};
