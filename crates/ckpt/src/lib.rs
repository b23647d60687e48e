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
//!   ([`CheckpointStore`], the one medium a delta chain lives in, always
//!   read CRC-verified) or process memory ([`MemTransport`]: whole records,
//!   for the survivor-local mirror and benches);
//! * the live-reshape **hand-off** ([`handoff`]): a [`Handoff`] keeps the
//!   predecessor's frozen cells, and the successor lends them, its replay
//!   target and its resume cursor through the hand-off's own methods;
//! * dirty-chunk **incremental** snapshots ([`delta`]): master delta
//!   records that persist only the bytes written since the previous
//!   snapshot;
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
//! With `Plug::IncrementalCkpt { full_every }` installed, snapshot cost
//! scales with the data *touched* between safe points instead of the data
//! held: shared containers track writes in an 8 KiB-chunk bitmap
//! ([`ppar_core::shared::DIRTY_CHUNK_BYTES`]), and each master checkpoint
//! streams only the dirty chunks as a *delta record*
//! (`ckpt_master_delta_<seq>.bin`). A local-snapshot shard grows no chain:
//! every shard save is one full record, patched in place where it can be
//! (see [`hook`]), and the store refuses a shard delta key.
//!
//! * **Record format** — deltas carry their own magic (`"PPARDLT1"`) and an
//!   explicit format version ([`delta::DELTA_VERSION`]); readers reject
//!   unknown versions instead of misparsing. Each field is either a whole
//!   payload (cells without write tracking: `ValueCell`, `TaskFrontier`)
//!   or a sparse `(offset, len)` chunk map plus the chunk bytes, with the
//!   same running CRC-32 and atomic temp-file/rename discipline as full
//!   snapshots. See [`delta`] for the byte layout.
//! * **Promotion policy** — the first snapshot of a run (and the first
//!   after any restore) is a full *base*; the next `full_every` snapshots
//!   are deltas `1..=full_every`; the snapshot after that is promoted to a
//!   fresh base and the superseded chain is garbage-collected. Deltas are
//!   tied to their base by the base's safe-point count, so a crash between
//!   promotion and GC leaves only *stale* deltas that the loader skips.
//! * **Restore** — the store's [`CkptTransport::with_merged`] folds base +
//!   chain (last writer wins per byte, each delta patched into the base
//!   record's bytes, every record CRC-verified) into a state byte-identical
//!   to a full snapshot, and a restart replays to the *last delta's* safe
//!   point. Merged data stays mode-independent:
//!   incremental snapshots restart in any execution mode, in any aggregate
//!   size (master-collect), exactly like full ones.
//! * **Distributed gathers** — in master-collect mode, every save after
//!   the first of an attempt (and after a restore) gathers only each
//!   element's *dirty ranges* (clamped to its owned block) at the root,
//!   whose write tracking then reflects exactly the aggregate's touched
//!   chunks — so a delta, a patched full record and its block CRCs all
//!   scale with the dirty fraction. Elements that do not persist reset
//!   their write tracking when the root saves
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
