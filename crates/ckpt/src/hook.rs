//! The checkpoint module: safe-point clock, snapshot/restore, replay state.
//!
//! This is the run-time realisation of the paper's four checkpointing
//! modules (§IV.A, Fig. 2):
//!
//! * **pcr** — at start-up, detect whether the previous execution failed
//!   (marker present + snapshot present) and arm replay mode;
//! * **allocations** — reach announced data through the
//!   [`ppar_core::state::Registry`];
//! * **safepoints** — count safe points per line of execution and trigger
//!   snapshots every `k` safe points;
//! * **ignorablemethods** — during replay, report which methods to skip.
//!
//! The module is engine-agnostic: engines decide *who* calls
//! [`CheckpointModule`]'s snapshot/load entry points and how the
//! team/aggregate is quiesced around them (barriers in shared memory,
//! gathers at the root in distributed memory); the module does the counting,
//! the (de)serialisation and the persistence.
//!
//! **Every save is one full record, and a disk restart reads it once.**
//! The module writes no delta chain, whatever the plan: a steady save
//! patches what changed into the file it rewrites (below), so
//! `Plug::IncrementalCkpt` no longer changes what a save writes. One
//! CRC-verified read at store open ([`CheckpointModule::create_group`])
//! yields the replay target (its count), every module's resume cursor (its
//! [`PROGRESS_FIELD`]) and the record the load installs (kept in
//! `GroupResume`); over a master chain an older build left, that read is
//! the chain's fold.
//!
//! **A medium only moves records.** A save is one commit through the
//! module's medium; what a directory needs besides lives in the store: a
//! master commit retires a chain an older build left, a fresh run retires
//! every record, chain and commit point an earlier run left at creation,
//! and the group-commit point is written to the module's own store (a
//! worker process has none, its root commits for the group).
//!
//! **A shard is one full record** too: a local-snapshot element saves its
//! owned block of every partitioned field at every save, lent from the
//! cell's memory, and patches it like a master record (below). So a
//! shard's `_prev`, the generation the group last committed, is always a
//! whole record a pinned restore can read.
//!
//! **A save rewrites the files its key last retired.** A flat commit
//! gives every file it supersedes — the record it renames over, a retired
//! chain's deltas — a spare name, and a shard's sink claims the `_prev`
//! its commit evicts (see [`crate::store`]); the module keeps the spares
//! ([`Superseded::keep`]), as the checkpoint service's lanes do; only a
//! direct [`CkptTransport::put`] unlinks them. So the module's next save of
//! each key claims the file that key last retired and writes into warm
//! page cache: the team pays neither for a fresh file nor for freeing the
//! old one. Spares outlive the module: a restarted run's first saves
//! claim the ones a stopped run left. A key's first save finds no spare,
//! so a master record written whole into a fresh file, while the loop
//! tracker shows another iteration to come, also writes a twin of itself
//! for the next save to claim ([`crate::store::Twin`]).
//!
//! **A steady save writes what changed since the file it rewrites, and
//! checksums what changed since the last full record.** The module keeps
//! its last two full records (`Generations`: each record's length, count
//! and CRC, where its fields lie, what every tracked field changed since,
//! and the CRC of every 256 KiB block of each tracked field whose bytes lie
//! in memory), and every full record goes through one rule: when the
//! sink's file is one of them — the flat sink's claimed spare, matched on
//! length, count and trailer CRC, nothing less — a tracked field (a cell,
//! or a shard's owned block of one) writes only the ranges changed since
//! that record (the last save's dirty ranges and this one's) and skips the
//! rest; everything else, and every save whose changes are dense or whose
//! base does not verify, is written whole. Either way, such a field takes from the newest record
//! the CRC of every block nothing touched since — neither that record's
//! changes since nor this save's dirty ranges — and checksums the others;
//! a failed save, a restore or a field of another length drops those
//! CRCs. The trailer is the CRC of
//! the state in memory only while the tracker misses no write: a missed
//! write would be neither written nor checksummed. A debug build's save
//! therefore checks every cached block against the field in memory and
//! panics, naming the field and the block, when one no longer matches
//! (see [`crate::store`]). Dirty tracking is reset after every save. A
//! save or a load that fails is kept
//! ([`CheckpointModule::take_failure`]) for the launcher, once the engine
//! has ended the attempt.
//!
//! **A live hand-off is the predecessor's state, frozen**: the crossing
//! keeps the root's safe-data cells ([`Handoff`]) instead of encoding a
//! record, and every element of the successor installs its own share
//! straight from them ([`Installed::Everywhere`]), so no collective moves
//! the state again.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_core::ctx::{CkptHook, Ctx, Installed, PointDirective};
use ppar_core::error::{PparError, Result};
use ppar_core::partition::{block_owned, scatter_ranges};
use ppar_core::plan::{DistCkptStrategy, Plan};
use ppar_core::runtime::{LoopFrame, RegionCursor, PROGRESS_FIELD};
use ppar_core::state::{DistCell, StateCell};
use ppar_core::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

use crate::crc::CRC_COPY_BLOCK;
use crate::delta::Merged;
use crate::handoff::Handoff;
use crate::store::{CheckpointStore, FieldPatch, FieldSource, Record, SnapshotMeta, SnapshotView};
use crate::transport::{commit_record, CkptTransport, Held, RecordSink, Superseded};

static NEXT_MODULE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // Per-thread safe-point clocks, keyed by module id (one process may host
    // many modules: one per simulated aggregate element).
    static CLOCKS: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
    // Per-thread count of safe points *skipped* by cursor fast-forwards,
    // keyed by module id. Subtracted from the clock at restore time to
    // report how many points were actually re-visited (replay-free resume
    // makes this a bounded tail instead of the whole history).
    static SKIPPED: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
}

/// Observable cost/state counters, powering Fig. 3–5 measurements.
#[derive(Debug, Clone, Default)]
pub struct CkptStats {
    /// Snapshots persisted by this module, each one full record.
    pub snapshots_taken: u64,
    /// Total length of the records the snapshots persisted (cumulative;
    /// what the saves actually wrote is [`CkptStats::bytes_put`]).
    pub bytes_written: u64,
    /// Length of the record the most recent snapshot persisted: the whole
    /// state, however much of it the save wrote.
    pub last_save_bytes: u64,
    /// Bytes the saves actually wrote into their medium: their record
    /// lengths ([`CkptStats::bytes_written`]) less what a patched full
    /// save moved past in the file it rewrote ([`RecordSink::skip`]), plus
    /// the twin a first save wrote to seed its key's spare
    /// ([`crate::store::Twin`]).
    pub bytes_put: u64,
    /// Cumulative wall time spent inside `take_snapshot`.
    pub save_time: Duration,
    /// Wall time of the most recent `take_snapshot`.
    pub last_save_time: Duration,
    /// Live hand-offs captured (live reshape: one per in-process mode
    /// switch).
    pub handoff_snapshots: u64,
    /// Payload bytes the most recent hand-off holds.
    pub last_handoff_bytes: u64,
    /// Wall time of the most recent hand-off capture.
    pub last_handoff_time: Duration,
    /// Wall time spent reading the state back (the Fig. 5 "load" bar): a
    /// disk group's start-up — failure detection and the one read of its
    /// record (read, CRC; the fold of a chain an older build left) — plus
    /// `load_snapshot`.
    pub load_time: Duration,
    /// Wall time from the end of start-up to the start of the load (the
    /// Fig. 5 "replay" bar, including the skipped re-execution), so
    /// `load_time + replay_time` = store open → state installed.
    pub replay_time: Duration,
    /// Safe points actually re-visited before the snapshot was loaded.
    /// Without a region cursor this is the whole history up to the replay
    /// target; a cursor fast-forward shrinks it to the bounded tail between
    /// the recorded loop-iteration entry and the target.
    pub replayed_points: u64,
    /// Safe-point clock the `PPARPRG1` region cursor fast-forwarded the
    /// replay to (0 when the restore replayed classically from the start).
    pub resumed_at_point: u64,
    /// Novel chunk objects the content-addressed store wrote (one per
    /// chunk whose content was not already present). Zero on flat-layout
    /// runs.
    pub chunks_written: u64,
    /// Chunks the content-addressed store *deduplicated* — referenced by a
    /// manifest but already present, so they cost one 20-byte manifest
    /// entry instead of a data write.
    pub chunks_deduped: u64,
    /// Payload bytes those deduplicated chunks would have cost a flat
    /// store (the store-side savings signal of the dedup figure).
    pub bytes_deduped: u64,
    /// Chunks the network checkpoint path never shipped because the root's
    /// store already held their content (wire-side dedup savings).
    pub wire_chunks_skipped: u64,
}

/// The pluggable checkpoint/restart module. One instance per process (or per
/// simulated aggregate element). Implements [`CkptHook`] for the engines.
pub struct CheckpointModule {
    id: u64,
    /// The file store backing `transport` when this module persists to disk
    /// (`None` for a worker process and for a module without a directory);
    /// owns the RUNNING-marker lifecycle.
    store: Option<CheckpointStore>,
    /// Where snapshots travel (the directory, or a worker's
    /// network transport to the root's); all persistence paths go through
    /// this seam. `None`: no medium — the module counts safe points, freezes
    /// hand-offs and resumes from them, and never snapshots.
    transport: Option<Arc<dyn CkptTransport>>,
    /// Why this module's save or restore failed, kept for the launcher:
    /// the engine that met the failure ends the attempt on every line of
    /// execution ([`CheckpointModule::take_failure`]).
    failure: Mutex<Option<PparError>>,
    /// Has this element saved — or, under master-collect, mirrored its
    /// root's save — since it was built or last restored?
    /// ([`CkptHook::may_gather_dirty`]).
    saved: AtomicBool,
    /// What [`CkptHook::handoff_snapshot`] froze at an escalated crossing,
    /// until the launcher takes it ([`CheckpointModule::take_handoff`]).
    handoff: Mutex<Option<Handoff>>,
    /// Armed one-shot resume source: the replay target is this hand-off's
    /// safe point and [`CkptHook::load_snapshot`] installs from it — on
    /// every element, each its own share (live reshape: the successor run
    /// inherits the predecessor's state). The load releases it.
    resume: Mutex<Option<Arc<Handoff>>>,
    every: u64,
    replay: AtomicBool,
    target: AtomicU64,
    stats: Mutex<CkptStats>,
    created: Instant,
    /// The last records this module committed, which a steady save may
    /// rewrite in place ([`Generations`]).
    generations: Mutex<Generations>,
    /// Live region-progress tracker: the loop frames the master thread is
    /// currently inside ([`CkptHook::note_loop_iter`]). Serialized as the
    /// `PPARPRG1` cursor into every snapshot and hand-off.
    frames: Mutex<Vec<LoopFrame>>,
    /// The resume cursor (`None` = no usable one), resolved when the replay
    /// is: at creation ([`GroupResume::cursor`]) and again from the hand-off
    /// [`CheckpointModule::arm_resume`] arms. Kept *separate* from the live
    /// tracker: during restart replay the master keeps tracking frames
    /// while other team threads still consult the cursor.
    resume_cursor: Mutex<Option<RegionCursor>>,
    /// Highest safe-point clock any thread fast-forwarded to (stats).
    resumed_at: AtomicU64,
    /// What start-up resolved for every module of one aggregate (see
    /// [`GroupResume`]).
    group_resume: Arc<GroupResume>,
}

/// What start-up resolved for one aggregate: one fold per aggregate, at
/// open; the load consumes it. The resume cursor is aggregate-symmetric
/// (every shard of a group commit carries the same `PPARPRG1` bytes), so
/// the in-process elements share the **single** CRC-checked fold
/// [`CheckpointModule::create_group`] made, and rank 0's load installs that
/// very fold instead of reading the record a second time.
#[derive(Default)]
struct GroupResume {
    /// Did start-up find the marker of a failed previous execution?
    detected_failure: bool,
    /// The safe point the group replays to (0 = a fresh run).
    target: u64,
    /// What start-up took; charged to [`CkptStats::load_time`].
    startup_time: Duration,
    /// The resume cursor every module of the group starts out with: the
    /// fold's [`PROGRESS_FIELD`], or what the root broadcast to a worker.
    cursor: Option<RegionCursor>,
    /// The record read (`None` key = master record, `Some(0)` = shard 0's
    /// — rank 0's to install either way), held only while it stands at the
    /// replay target, until rank 0 loads or a resume source is armed.
    prefetched: Mutex<Option<(Option<u32>, Merged)>>,
}

/// Byte ranges of a field's payload, sorted and disjoint.
type Ranges = Vec<std::ops::Range<usize>>;

/// The last two full records this module committed in this process,
/// newest first, each with what every field changed since. A commit gives
/// the record it renames over the spare name (and a shard's sink claims
/// the `_prev` its rotation evicts), so the file a steady save claims
/// holds the older one, and the newer one is what the next save's will
/// hold. The first save leaves its spare: written whole into a fresh file
/// with more saves to come, a master record also seeds its key's spare
/// with a twin of itself ([`crate::store::Twin`]), so the second save's
/// claimed file holds the newest record. A save whose sink holds one of
/// them rewrites only those changes ([`Record::patch`]), and every save
/// takes the block CRCs of what did not change since the newest one from
/// it. Incremental mode is this rule too: no save extends a chain.
#[derive(Default)]
struct Generations(Vec<Generation>);

struct Generation {
    /// What names the record's file: length, count and trailer CRC.
    held: Held,
    /// Where each field's payload lies in it.
    spans: Vec<std::ops::Range<u64>>,
    /// Per field, the payload ranges written since this record was saved;
    /// `None` for a field without write tracking, which is always
    /// written whole.
    since: Vec<Option<Ranges>>,
    /// Per field, the CRC of every [`CRC_COPY_BLOCK`] of its payload as
    /// this record holds it; `None` for a field that is not a tracked cell
    /// whose bytes lie in memory.
    blocks: Vec<Option<Vec<u32>>>,
}

impl Generations {
    /// How a full record whose payloads lie at `spans`, and whose fields
    /// changed `changed` since the last save, goes into `sink`: per field,
    /// what it rewrites ([`Generations::rewrite`]) and the block CRCs it
    /// may take from the newest record ([`Generations::known`]).
    fn plan(
        &self,
        sink: &mut dyn RecordSink,
        spans: &[std::ops::Range<u64>],
        changed: &[Option<Ranges>],
    ) -> Result<Vec<FieldPatch>> {
        let rewrite = self.rewrite(sink, spans, changed)?;
        let known = self.known(spans, changed);
        let fields = rewrite.into_iter().zip(known);
        Ok(fields
            .map(|(write, known)| FieldPatch { write, known })
            .collect())
    }

    /// What a full record whose payloads lie at `spans`, and whose fields
    /// changed `changed` since the last save, must rewrite in `sink` (per
    /// field; `None`: the whole payload). Only a base this module
    /// committed is trusted: the sink's file must match one of these
    /// records in length, count and CRC, and a field is patched only where
    /// it lies exactly where it lay then. A save whose changes cover every
    /// tracked field writes whole without reading the sink's file.
    fn rewrite(
        &self,
        sink: &mut dyn RecordSink,
        spans: &[std::ops::Range<u64>],
        changed: &[Option<Ranges>],
    ) -> Result<Vec<Option<Ranges>>> {
        let whole = vec![None; spans.len()];
        let sparse = changed.iter().zip(spans).any(|(changed, span)| {
            changed
                .as_ref()
                .is_some_and(|ranges| covered(ranges) < span.end - span.start)
        });
        if !sparse {
            return Ok(whole);
        }
        let Some(held) = sink.held()? else {
            return Ok(whole);
        };
        let Some(base) = self.0.iter().find(|g| g.held == held) else {
            return Ok(whole);
        };
        let rewrite = spans.iter().enumerate().map(|(i, span)| {
            let since = base.since.get(i)?.as_ref()?;
            let now = changed.get(i)?.as_ref()?;
            (base.spans.get(i) == Some(span)).then(|| union(since, now))
        });
        Ok(rewrite.collect())
    }

    /// Per field of a full record whose payloads lie at `spans`, and whose
    /// fields changed `changed` since the last save, the block CRCs it may
    /// take from the newest record ([`FieldPatch::known`]): that record's,
    /// but for every block touched by what changed since it was saved —
    /// its `since` and `changed`. A tracked field whose payload has
    /// another length now, or that the newest record kept no CRCs of,
    /// checksums every block; an untracked field keeps none.
    fn known(
        &self,
        spans: &[std::ops::Range<u64>],
        changed: &[Option<Ranges>],
    ) -> Vec<Option<Vec<Option<u32>>>> {
        let newest = self.0.first();
        let fields = spans.iter().zip(changed).enumerate();
        let known = fields.map(|(i, (span, changed))| {
            let changed = changed.as_ref()?;
            let len = span.end - span.start;
            let mut known = vec![None; (len as usize).div_ceil(CRC_COPY_BLOCK)];
            let cached = newest.and_then(|newest| {
                let blocks = newest.blocks.get(i)?.as_ref()?;
                let since = newest.since.get(i)?.as_ref()?;
                let was = newest.spans.get(i)?;
                (was.end - was.start == len).then_some((blocks, since))
            });
            if let Some((blocks, since)) = cached {
                for (known, &crc) in known.iter_mut().zip(blocks) {
                    *known = Some(crc);
                }
                for r in since.iter().chain(changed).filter(|r| !r.is_empty()) {
                    let stale = r.start / CRC_COPY_BLOCK..r.end.div_ceil(CRC_COPY_BLOCK);
                    let stale = stale.start.min(known.len())..stale.end.min(known.len());
                    known[stale].fill(None);
                }
            }
            Some(known)
        });
        known.collect()
    }

    /// A full record `held`, payloads at `spans` and block CRCs `blocks`,
    /// was committed, capturing `changed`: every kept record is that much
    /// further behind.
    fn committed(
        &mut self,
        held: Held,
        spans: Vec<std::ops::Range<u64>>,
        changed: &[Option<Ranges>],
        blocks: Vec<Option<Vec<u32>>>,
    ) {
        for generation in &mut self.0 {
            for (since, now) in generation.since.iter_mut().zip(changed) {
                *since = match (since.take(), now) {
                    (Some(since), Some(now)) => Some(union(&since, now)),
                    _ => None,
                };
            }
        }
        let since = changed.iter().map(|c| c.as_ref().map(|_| Vec::new()));
        let since = since.collect();
        self.0.insert(
            0,
            Generation {
                held,
                spans,
                since,
                blocks,
            },
        );
        self.0.truncate(2);
    }
}

/// Commit the full record of `meta` and `fields` through `to` as
/// [`Generations::plan`] lays it out — rewriting in place the record the
/// sink's file holds when the module trusts it, checksumming only the
/// blocks that changed since the newest record — and keep it among
/// `generations`. With `seed` (another save is coming), a record written
/// whole into a fresh file also seeds the key's spare ([`Record::patch`]),
/// which the next save recognises as this record and patches. Returns what
/// the commit superseded and the bytes the save put on the medium.
fn commit_full(
    to: &dyn CkptTransport,
    meta: &SnapshotMeta,
    fields: &[(&str, FieldSource<'_>)],
    changed: &[Option<Ranges>],
    generations: &mut Generations,
    seed: bool,
) -> Result<(Superseded, u64)> {
    let record = Record::Full(meta, fields);
    let spans = record.payload_spans();
    let (gone, patched) = commit_record(to, &record, |sink| {
        let plan = generations.plan(sink, &spans, changed)?;
        record.patch(sink, &plan, seed)
    })?;
    let held = Held {
        len: patched.len,
        count: meta.count,
        crc: patched.crc,
    };
    generations.committed(held, spans, changed, patched.blocks);
    Ok((gone, patched.len - patched.skipped + patched.twinned))
}

/// Bytes `ranges` (sorted, disjoint) cover.
fn covered(ranges: &[std::ops::Range<usize>]) -> u64 {
    ranges.iter().map(|r| r.len() as u64).sum()
}

/// The union of two sorted, disjoint range lists, sorted, disjoint and
/// coalesced.
fn union(a: &[std::ops::Range<usize>], b: &[std::ops::Range<usize>]) -> Ranges {
    let mut all: Ranges = a.iter().chain(b).cloned().collect();
    all.sort_unstable_by_key(|r| r.start);
    let mut out: Ranges = Vec::with_capacity(all.len());
    for r in all.into_iter().filter(|r| !r.is_empty()) {
        match out.last_mut() {
            Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
            _ => out.push(r),
        }
    }
    out
}

impl CheckpointModule {
    /// Open `dir`, run the pcr start-up protocol (failure detection) and arm
    /// replay if the previous execution died after a snapshot. Sets the
    /// in-flight marker for the new run.
    pub fn create(dir: impl AsRef<Path>, plan: &Plan) -> Result<Arc<CheckpointModule>> {
        Ok(CheckpointModule::create_group(dir, plan, 1)?
            .pop()
            .expect("one module"))
    }

    /// Create one module per aggregate element with a **single** start-up
    /// failure-detection pass. This is how a distributed launcher must
    /// construct its modules: detecting per-element would race with the
    /// marker the first element sets (and, across threads, with a fast
    /// element finishing the whole run before a slow one starts).
    pub fn create_group(
        dir: impl AsRef<Path>,
        plan: &Plan,
        n: usize,
    ) -> Result<Vec<Arc<CheckpointModule>>> {
        let store = CheckpointStore::new(dir)?;
        let opened = Instant::now();
        let detected_failure = store.marker_exists();
        // The newest usable record, read whole (a chain an older build left
        // is folded): the master's first, shard 0's otherwise (local-snapshot
        // groups carry identical cursors on every shard).
        let fold = || -> Result<Option<(Option<u32>, Merged)>> {
            for rank in [None, Some(0)] {
                if let Some(merged) = store.merged(rank, None)? {
                    return Ok(Some((rank, merged)));
                }
            }
            Ok(None)
        };
        // A group-commit point is authoritative when present (sharded
        // strategies write one after every post-save barrier): shard tips
        // may have outrun it if a save was torn by a rank death. The fold is
        // then best-effort — a torn tip costs the cursor and the stash, the
        // pinned load falls back to the retained generation. Without one the
        // restore lands on the newest record, and a bad one fails start-up.
        let (committed, folded) = if !detected_failure {
            (None, None)
        } else if let Some(count) = store.committed_count()? {
            (Some(count), fold().unwrap_or(None))
        } else {
            (None, fold()?)
        };
        // Target 0 (no failure, or one before the first snapshot): fresh run.
        let tip = folded.as_ref().map(|(_, merged)| merged.count());
        let target = committed.or(tip).unwrap_or(0);
        // A record from before the cursor existed has no such field; that,
        // like a cursor that fails to decode, is "no cursor" — never an error.
        let cursor = folded.as_ref().and_then(|(_, merged)| {
            RegionCursor::decode(merged.view().field(PROGRESS_FIELD)?).ok()
        });
        // The record is worth its memory only to the load at the target.
        let prefetched = folded.filter(|_| target > 0 && tip == Some(target));
        if target == 0 {
            // Fresh run in a possibly reused directory: a crash before this
            // run's first save must not restore what an earlier run left
            // (its record, shards or commit point), and an old delta chain
            // could carry a `base_count` equal to a count this run will
            // reach (runs of the same app repeat the same safe-point
            // schedule). Retire them all up front; their files stay as
            // spares for this run's saves to claim.
            store.retire_records()?;
        }

        store.set_marker()?;
        let resume = GroupResume {
            detected_failure,
            target,
            startup_time: opened.elapsed(),
            cursor,
            prefetched: Mutex::new(prefetched),
        };
        let transport: Arc<dyn CkptTransport> = Arc::new(store.clone());
        let modules = CheckpointModule::build_group(Some(store), Some(transport), plan, n, resume);
        Ok(modules)
    }

    /// Create one module per aggregate element with no checkpoint
    /// directory and no medium (a live session without one): it counts
    /// safe points, freezes hand-offs and resumes from them — arm replay
    /// with [`CheckpointModule::arm_resume`] — and never snapshots. No
    /// failure detection runs and the run-marker lifecycle is a no-op. A
    /// plan that would snapshot (`checkpoint_every() > 0`) is refused with
    /// `InvalidPlan`: those snapshots would have nowhere to go.
    pub fn create_group_without_dir(plan: &Plan, n: usize) -> Result<Vec<Arc<CheckpointModule>>> {
        if let Some(every) = plan.checkpoint_every().filter(|&every| every > 0) {
            return Err(PparError::InvalidPlan(format!(
                "the plan snapshots every {every} safe points but no checkpoint \
                 directory is configured"
            )));
        }
        Ok(CheckpointModule::build_group(
            None,
            None,
            plan,
            n,
            GroupResume::default(),
        ))
    }

    /// Create the module for one **worker process** of a real
    /// multi-process job: persistence goes through `transport` (typically
    /// a network transport reaching the root's durable store), and the
    /// replay decision is *not* re-derived locally — only the root sees
    /// the marker and the snapshots, runs the start-up
    /// failure-detection pass once ([`CheckpointModule::create`]), and
    /// broadcasts `(detected_failure, replay_target)` to the workers
    /// before any of them reaches a safe point. Re-deriving per process
    /// would race the marker the root sets, exactly like the per-thread
    /// race [`CheckpointModule::create_group`] exists to prevent.
    ///
    /// `progress` is the encoded `PPARPRG1` region cursor the root read
    /// from the snapshot being replayed to (empty/undecodable = classic
    /// replay). It rides the same broadcast as the replay decision so a
    /// worker never pays a network round-trip — or a full-snapshot read —
    /// just to learn its loop position.
    pub fn create_worker(
        transport: Arc<dyn CkptTransport>,
        plan: &Plan,
        detected_failure: bool,
        replay_target: u64,
        progress: &[u8],
    ) -> Arc<CheckpointModule> {
        // The resume cursor is the broadcast bytes: reading a merged
        // snapshot through the network transport to learn it is exactly
        // what the broadcast avoids.
        let resume = GroupResume {
            detected_failure,
            target: replay_target,
            cursor: RegionCursor::decode(progress).ok(),
            ..GroupResume::default()
        };
        CheckpointModule::build_group(None, Some(transport), plan, 1, resume)
            .pop()
            .expect("one module")
    }

    /// `n` modules over one transport, starting from what `resume` says
    /// start-up resolved.
    fn build_group(
        store: Option<CheckpointStore>,
        transport: Option<Arc<dyn CkptTransport>>,
        plan: &Plan,
        n: usize,
        resume: GroupResume,
    ) -> Vec<Arc<CheckpointModule>> {
        let every = plan.checkpoint_every().unwrap_or(0) as u64;
        let group_resume = Arc::new(resume);
        (0..n.max(1))
            .map(|_| {
                Arc::new(CheckpointModule {
                    id: NEXT_MODULE_ID.fetch_add(1, Ordering::Relaxed),
                    store: store.clone(),
                    transport: transport.clone(),
                    failure: Mutex::new(None),
                    saved: AtomicBool::new(false),
                    handoff: Mutex::new(None),
                    resume: Mutex::new(None),
                    every,
                    replay: AtomicBool::new(group_resume.target > 0),
                    target: AtomicU64::new(group_resume.target),
                    stats: Mutex::new(CkptStats {
                        load_time: group_resume.startup_time,
                        ..CkptStats::default()
                    }),
                    created: Instant::now(),
                    generations: Mutex::new(Generations::default()),
                    frames: Mutex::new(Vec::new()),
                    resume_cursor: Mutex::new(group_resume.cursor.clone()),
                    resumed_at: AtomicU64::new(0),
                    group_resume: group_resume.clone(),
                })
            })
            .collect()
    }

    /// The hand-off this module froze at an escalated crossing, if it did
    /// (the root's module: the crossing gathers the state there).
    pub fn take_handoff(&self) -> Option<Handoff> {
        self.handoff.lock().take()
    }

    /// Arm a one-shot resume from `handoff`, the state the predecessor of a
    /// live reshape froze: replay mode is switched on with the hand-off's
    /// safe point as the target, and the restore there installs from it
    /// (later restores read the module's own medium). Returns the replay
    /// target.
    pub fn arm_resume(&self, handoff: Arc<Handoff>) -> u64 {
        let target = handoff.count();
        // A hand-off replaces what start-up resolved off the disk: the
        // cursor and the record.
        *self.resume_cursor.lock() = handoff.cursor();
        *self.group_resume.prefetched.lock() = None;
        *self.resume.lock() = Some(handoff);
        self.target.store(target, Ordering::SeqCst);
        self.replay.store(true, Ordering::SeqCst);
        target
    }

    /// The encoded `PPARPRG1` cursor of the snapshot this module will
    /// replay to (empty when there is none or the run is fresh). Rank 0 of a
    /// multi-process job broadcasts this alongside the replay decision so
    /// workers never read a snapshot over the network just to learn their
    /// loop position.
    pub fn resume_progress_bytes(&self) -> Vec<u8> {
        if !self.will_replay() {
            return Vec::new();
        }
        let cursor = self.resume_cursor.lock();
        cursor.as_ref().map(|c| c.encode()).unwrap_or_default()
    }

    /// Why this module's save or restore failed, if one did: the engine
    /// ends the attempt with [`ppar_core::runtime::Exit::Fault`], and the
    /// launcher reports this.
    pub fn take_failure(&self) -> Option<PparError> {
        self.failure.lock().take()
    }

    /// Keep why a save or a restore failed, for [`CheckpointModule::take_failure`].
    fn fail(&self, e: &PparError) {
        *self.failure.lock() = Some(e.clone());
    }

    /// Did start-up detect a failed previous execution?
    pub fn detected_failure(&self) -> bool {
        self.group_resume.detected_failure
    }

    /// Will (or did) this run replay to a snapshot?
    pub fn will_replay(&self) -> bool {
        self.target.load(Ordering::SeqCst) > 0
    }

    /// The safe-point count being replayed to (0 = fresh run).
    pub fn replay_target(&self) -> u64 {
        self.target.load(Ordering::SeqCst)
    }

    /// Cost counters.
    pub fn stats(&self) -> CkptStats {
        self.stats.lock().clone()
    }

    /// The underlying file store (benches clear it between experiments).
    /// Panics for a module without a checkpoint directory.
    pub fn store(&self) -> &CheckpointStore {
        self.store
            .as_ref()
            .expect("this checkpoint module has no checkpoint directory")
    }

    /// The medium snapshots travel through. Creation refuses a plan that
    /// snapshots without one, so only a misused module gets the error.
    fn medium(&self) -> Result<&dyn CkptTransport> {
        self.transport.as_deref().ok_or_else(|| {
            PparError::InvalidPlan("this checkpoint module has no checkpoint directory".into())
        })
    }

    fn clock_increment(&self) -> u64 {
        CLOCKS.with(|c| {
            let mut map = c.borrow_mut();
            let e = map.entry(self.id).or_insert(0);
            *e += 1;
            *e
        })
    }

    fn clock_set(&self, v: u64) {
        CLOCKS.with(|c| {
            c.borrow_mut().insert(self.id, v);
        });
    }

    fn clock_get(&self) -> u64 {
        CLOCKS.with(|c| c.borrow().get(&self.id).copied().unwrap_or(0))
    }

    fn skipped_add(&self, v: u64) {
        SKIPPED.with(|s| {
            *s.borrow_mut().entry(self.id).or_insert(0) += v;
        });
    }

    fn skipped_get(&self) -> u64 {
        SKIPPED.with(|s| s.borrow().get(&self.id).copied().unwrap_or(0))
    }

    /// Encode the live progress tracker as a `PPARPRG1` cursor pinned to
    /// the snapshot's safe-point count.
    fn progress_bytes(&self, count: u64) -> Vec<u8> {
        RegionCursor {
            point_count: count,
            frames: self.frames.lock().clone(),
        }
        .encode()
    }

    /// Collect the plan's safe data and put it through `to` as the full
    /// record `meta` heads.
    ///
    /// `meta.rank` picks the scope. Master records (complete data at the
    /// caller — engines must have collected partitioned fields first)
    /// stream every field straight from its registered cell. A shard record
    /// takes of each partitioned field this element's owned block, lent
    /// from the cell's memory — or, for a cell that lends none, extracted
    /// into a copy local to this save — and what the cell wrote since the
    /// last save inside that block, relative to it.
    ///
    /// Every record goes through one rule ([`Generations::plan`]),
    /// master and shard alike: when the sink's file already holds one of
    /// this module's last two full records, a tracked field rewrites only
    /// what changed since, and every other field — untracked, the cursor —
    /// is written whole; and a tracked field checksums only the blocks
    /// that changed since the newest of them. Returns what the commit
    /// superseded and the bytes the save put on the medium.
    fn put_fields(
        &self,
        ctx: &Ctx,
        to: &dyn CkptTransport,
        meta: &SnapshotMeta,
    ) -> Result<(Superseded, u64)> {
        enum Slot {
            /// A field streamed from its cell.
            Cell(Arc<dyn StateCell>),
            /// A shard's owned block of a partitioned cell: the `bytes` of
            /// its encoding, or `copy` when the cell lends no encoding.
            Owned {
                cell: Arc<dyn DistCell>,
                bytes: std::ops::Range<usize>,
                copy: Vec<u8>,
            },
        }

        impl Slot {
            fn source(&self) -> FieldSource<'_> {
                match self {
                    Slot::Cell(cell) => FieldSource::Cell(&**cell),
                    Slot::Owned { cell, bytes, copy } => FieldSource::Bytes(match cell.encoded() {
                        Some(encoded) => &encoded[bytes.clone()],
                        None => copy,
                    }),
                }
            }
        }

        let mut slots: Vec<(&str, Slot)> = Vec::new();
        // What each field of the record changed since the last save: a
        // tracked cell's dirty ranges, relative to the field's payload. The
        // cursor counts as untracked.
        let mut changed: Vec<Option<Ranges>> = Vec::new();
        for name in ctx.plan().safe_data() {
            if meta.rank.is_none() || ctx.plan().field_partition(name).is_none() {
                let cell = ctx.registry().state(name)?;
                changed.push(cell.dirty_ranges());
                slots.push((name, Slot::Cell(cell)));
                continue;
            }
            let cell = ctx.registry().dist(name)?;
            let owned = block_owned(cell.logical_len(), ctx.num_ranks(), ctx.rank());
            let ib = cell.index_bytes();
            let bytes = owned.start * ib..owned.end * ib;
            // This element persists only bytes it owns: the field-wide
            // dirty ranges, clamped to the owned block and rebased to it.
            changed.push(cell.dirty_ranges().map(|ranges| {
                let clamped = ranges
                    .iter()
                    .map(|r| r.start.max(bytes.start)..r.end.min(bytes.end));
                let clamped = clamped.filter(|r| r.start < r.end);
                clamped
                    .map(|r| r.start - bytes.start..r.end - bytes.start)
                    .collect()
            }));
            let mut copy = Vec::new();
            if cell.encoded().is_none() {
                cell.extract_into(owned, &mut copy);
            }
            slots.push((name, Slot::Owned { cell, bytes, copy }));
        }
        // The cursor always travels whole (tens of bytes).
        changed.push(None);
        let progress = self.progress_bytes(meta.count);
        let fields: Vec<_> = slots
            .iter()
            .map(|(name, slot)| (*name, slot.source()))
            .chain([(PROGRESS_FIELD, FieldSource::Bytes(&progress))])
            .collect();
        let seed = self.frames.lock().iter().any(|f| f.index + 1 < f.end);
        let mut generations = self.generations.lock();
        let committed = commit_full(to, meta, &fields, &changed, &mut generations, seed);
        if committed.is_err() {
            // Whatever the sink's file holds now, it is no record of ours.
            *generations = Generations::default();
        }
        committed
    }

    /// Reset write tracking on every safe-data cell: the snapshot that just
    /// completed captured everything up to now (the checkpoint cycle's
    /// `advance_epoch`). Engines quiesce the team/aggregate around
    /// `take_snapshot`, so no write can race the reset.
    fn clear_dirty_fields(&self, ctx: &Ctx) -> Result<()> {
        for name in ctx.plan().safe_data() {
            ctx.registry().state(name)?.clear_dirty();
        }
        Ok(())
    }

    /// Put a restored record where it belongs — the one installer, whatever
    /// route the record arrived by. What a partitioned field's payload holds
    /// is stated by the record's own header: a *shard* record carries this
    /// element's owned block as is; a *master* record carries the whole
    /// field. Of a master record the root loads every field whole (under
    /// master-collect), every other element carves out of a partitioned
    /// field what the engine's post-restore scatter would have delivered —
    /// its owned ranges, widened by the halo depth for a field with a
    /// halo-exchange plug ([`scatter_ranges`]) — and a local-snapshot
    /// element its owned block (the live hand-off always lends a
    /// mode-independent master view, so every successor element installs
    /// its share of it). Non-partitioned fields always load whole, which is
    /// what the engine's broadcast would deliver.
    fn install(&self, ctx: &Ctx, snap: &SnapshotView<'_>) -> Result<()> {
        let (plan, rank, nranks) = (ctx.plan(), ctx.rank(), ctx.num_ranks());
        if snap.meta.rank.is_some() && snap.meta.nranks as usize != nranks {
            return Err(PparError::FormatMismatch {
                expected: format!("{nranks} ranks"),
                found: format!(
                    "{} ranks (local snapshots restart only in the same \
                     aggregate size)",
                    snap.meta.nranks
                ),
            });
        }
        let sharded = self.sharded(ctx);
        let root_of_master = snap.meta.rank.is_none() && !sharded && rank == 0;
        for name in plan.safe_data() {
            let bytes = snap.field(name).ok_or_else(|| {
                PparError::CorruptCheckpoint(format!("snapshot missing field {name:?}"))
            })?;
            let partition = match plan.field_partition(name) {
                Some(partition) if !root_of_master => partition,
                _ => {
                    ctx.registry().state(name)?.load_bytes(bytes)?;
                    continue;
                }
            };
            let cell = ctx.registry().dist(name)?;
            let len = cell.logical_len();
            let owned = block_owned(len, nranks, rank);
            let ranges = match (snap.meta.rank, sharded) {
                (Some(_), _) => {
                    cell.install(owned, bytes)?;
                    continue;
                }
                (None, true) => vec![owned],
                (None, false) => {
                    scatter_ranges(partition, len, nranks, rank, plan.halo_depth(name))
                }
            };
            let ib = cell.index_bytes();
            for range in ranges {
                let block = bytes.get(range.start * ib..range.end * ib).ok_or_else(|| {
                    PparError::CorruptCheckpoint(format!(
                        "field {name:?}: {} bytes cannot cover block {range:?} × {ib}B",
                        bytes.len()
                    ))
                })?;
                cell.install(range, block)?;
            }
        }
        Ok(())
    }

    /// A restore off the module's own medium. A local-snapshot element
    /// reads its own shard, pinned to the safe point being restored so a
    /// shard generation that outran the group commit (torn save) rolls back
    /// with everyone else; master-collect reads the master record at the
    /// root. A disk restart's record was read at store open: rank 0's load
    /// empties the group's slot whatever it holds (only ever the master's or
    /// shard 0's record: no other element could use it) and installs it
    /// when it is exactly the record this load would otherwise read — same
    /// key, at the restore target.
    fn restore(&self, ctx: &Ctx, sharded: bool) -> Result<()> {
        let (key, pin) = match sharded {
            true => (Some(ctx.rank() as u32), Some(self.clock_get())),
            false => (None, None),
        };
        let stashed = match ctx.rank() {
            0 => self.group_resume.prefetched.lock().take(),
            _ => None,
        };
        if let Some((_, merged)) =
            stashed.filter(|(k, m)| *k == key && m.count() == self.clock_get())
        {
            return self.install(ctx, &merged.view());
        }
        let medium = self.medium()?;
        if !medium.with_merged(key, pin, &mut |snap| self.install(ctx, snap))? {
            return Err(PparError::CorruptCheckpoint(format!(
                "the {} transport holds no {key:?} record to restore from",
                medium.describe()
            )));
        }
        Ok(())
    }

    /// [`CkptHook::load_snapshot`], before its failure is kept.
    fn load(&self, ctx: &Ctx) -> Result<Installed> {
        let t0 = Instant::now();
        let resume = self.resume.lock().take();
        // Who installs: every element of a live-reshape resume (each lends
        // the one hand-off — the launcher arms every element, so all make
        // this choice) and every local-snapshot element; otherwise the
        // root, from which the engine scatters partitioned fields and
        // broadcasts the rest (no record access on other elements).
        let sharded = self.sharded(ctx);
        let installed = if resume.is_some() || sharded {
            Installed::Everywhere
        } else {
            Installed::Root
        };
        match &resume {
            // A live-reshape resume reads the predecessor's frozen state:
            // no disk round-trip and no record, the lend is the
            // predecessor's own cells, so the install is the one copy.
            Some(handoff) => handoff.lend(&mut |view| self.install(ctx, view))?,
            None if installed == Installed::Everywhere || ctx.rank() == 0 => {
                self.restore(ctx, sharded)?
            }
            None => {}
        }
        // No record this module wrote before the restore is a base for the
        // next save: the next snapshot does not patch a file this process
        // generation did not write since.
        *self.generations.lock() = Generations::default();
        // Nor has any element's gather since: the next one moves whole
        // partitions.
        self.saved.store(false, Ordering::SeqCst);

        let was_replaying = self.replay.swap(false, Ordering::SeqCst);
        let mut stats = self.stats.lock();
        stats.load_time += t0.elapsed();
        if was_replaying {
            stats.replay_time = t0.duration_since(self.created);
            // The clock counts every safe point between region start and the
            // target; subtract the span the cursor let this thread skip to
            // report the points actually re-visited.
            stats.replayed_points = self.clock_get().saturating_sub(self.skipped_get());
            stats.resumed_at_point = self.resumed_at.load(Ordering::SeqCst);
        }
        Ok(installed)
    }

    /// [`CkptHook::take_snapshot`], before its failure is kept.
    fn save(&self, ctx: &Ctx) -> Result<()> {
        let t0 = Instant::now();
        let count = self.clock_get();
        let nranks = ctx.num_ranks() as u32;
        let rank = self.sharded(ctx).then(|| ctx.rank() as u32);

        let meta = SnapshotMeta {
            mode_tag: ctx.mode().tag(),
            count,
            rank,
            nranks,
        };
        let to = self.medium()?;

        // The spares the commit left are the files the next save of each
        // key rewrites.
        let (gone, wrote) = self.put_fields(ctx, to, &meta)?;
        let written = gone.keep();
        // The checkpoint cycle's epoch reset, after every save: whatever was
        // dirty is now captured, and the next save, rewriting this one's
        // file, needs exactly what changes from here on.
        self.clear_dirty_fields(ctx)?;
        self.saved.store(true, Ordering::SeqCst);

        let dt = t0.elapsed();
        // Fold the transport's dedup counters (content-addressed store
        // and/or network dedup negotiation) into the observable stats; a
        // flat-layout transport reports all-zero.
        let put = to.take_put_stats();
        let mut stats = self.stats.lock();
        stats.snapshots_taken += 1;
        stats.bytes_written += written;
        stats.last_save_bytes = written;
        stats.bytes_put += wrote;
        stats.save_time += dt;
        stats.last_save_time = dt;
        stats.chunks_written += put.chunks_written;
        stats.chunks_deduped += put.chunks_deduped;
        stats.bytes_deduped += put.bytes_deduped;
        stats.wire_chunks_skipped += put.wire_chunks_skipped;
        Ok(())
    }

    /// Does every element persist (and restore) its own shard?
    fn sharded(&self, ctx: &Ctx) -> bool {
        ctx.num_ranks() > 1 && ctx.plan().dist_ckpt_strategy() == DistCkptStrategy::LocalSnapshot
    }
}

impl CkptHook for CheckpointModule {
    fn at_point(&self, _ctx: &Ctx, _name: &str) -> PointDirective {
        let c = self.clock_increment();
        if self.replay.load(Ordering::SeqCst) {
            if c == self.target.load(Ordering::SeqCst) {
                return PointDirective::LoadAndResume;
            }
            return PointDirective::Continue;
        }
        if self.every > 0 && c.is_multiple_of(self.every) {
            return PointDirective::Snapshot;
        }
        PointDirective::Continue
    }

    fn skip_method(&self, ctx: &Ctx, name: &str) -> bool {
        self.replay.load(Ordering::SeqCst) && ctx.plan().is_ignorable(name)
    }

    fn replaying(&self) -> bool {
        self.replay.load(Ordering::SeqCst)
    }

    fn take_snapshot(&self, ctx: &Ctx) -> Result<()> {
        self.save(ctx).inspect_err(|e| self.fail(e))
    }

    fn load_snapshot(&self, ctx: &Ctx) -> Result<Installed> {
        self.load(ctx).inspect_err(|e| self.fail(e))
    }

    fn sync_thread_clock(&self, count: u64) {
        self.clock_set(count);
    }

    fn count(&self) -> u64 {
        self.clock_get()
    }

    fn note_load_extra(&self, extra: Duration) {
        self.stats.lock().load_time += extra;
    }

    fn note_loop_iter(&self, depth: usize, name: &str, start: u64, end: u64, index: u64) {
        let clock = self.clock_get();
        let mut frames = self.frames.lock();
        frames.truncate(depth + 1);
        match frames.get_mut(depth) {
            // Steady state: update the existing frame in place — no
            // allocation on the per-iteration path.
            Some(f) if f.name == name && f.start == start && f.end == end => {
                f.index = index;
                f.clock_at_entry = clock;
            }
            _ => {
                frames.truncate(depth);
                frames.push(LoopFrame {
                    name: name.to_string(),
                    start,
                    end,
                    index,
                    clock_at_entry: clock,
                });
            }
        }
    }

    fn note_loop_exit(&self, depth: usize) {
        self.frames.lock().truncate(depth);
    }

    fn loop_resume(&self, depth: usize, name: &str, start: u64, end: u64) -> Option<u64> {
        if !self.replay.load(Ordering::SeqCst) {
            return None;
        }
        let target = self.target.load(Ordering::SeqCst);
        let cursor = self.resume_cursor.lock();
        let cursor = cursor.as_ref().filter(|c| c.point_count == target)?;
        let f = cursor.frames.get(depth)?;
        if f.name != name || f.start != start || f.end != end {
            return None;
        }
        if f.index < f.start || f.index >= f.end {
            // Corrupt-cursor guard: reject before touching the clock —
            // the caller independently bounds-checks the index and
            // would decline a jump this module already committed to.
            return None;
        }
        // The frame's entry clock must sit *strictly* before the target
        // (`at_point` matches `c == target` exactly — a jump landing on
        // or past it could never trigger the restore) and never rewind
        // this thread's clock.
        let here = self.clock_get();
        if f.clock_at_entry >= target || f.clock_at_entry < here {
            return None;
        }
        self.clock_set(f.clock_at_entry);
        self.skipped_add(f.clock_at_entry - here);
        self.resumed_at
            .fetch_max(f.clock_at_entry, Ordering::SeqCst);
        Some(f.index)
    }

    fn live_loop_frame(&self, depth: usize, name: &str) -> Option<(u64, u64)> {
        let frames = self.frames.lock();
        let f = frames.get(depth)?;
        (f.name == name).then_some((f.index, f.clock_at_entry))
    }

    /// The commit point lives in the module's own store; a worker process
    /// has none, and its root commits for the group.
    fn group_commit(&self, ctx: &Ctx) -> Result<()> {
        match &self.store {
            Some(store) if self.sharded(ctx) => store.commit_group(self.clock_get()),
            _ => Ok(()),
        }
    }

    fn finish(&self, _ctx: &Ctx) -> Result<()> {
        match &self.store {
            Some(store) => store.clear_marker(),
            // In-memory modules have no failure marker: memory does not
            // survive the process, so there is nothing to detect at start-up.
            None => Ok(()),
        }
    }

    fn handoff_snapshot(&self, ctx: &Ctx) -> Result<()> {
        let t0 = Instant::now();
        // Always a *full master* view: the successor may be any mode and
        // any aggregate size, so the hand-off must hold the complete,
        // mode-independent state (partitioned fields are already collected
        // at the caller — engines gather before calling, master-collect
        // rules). The cells are kept, not encoded: every line of execution
        // leaves this crossing, so nothing writes them again.
        let count = self.clock_get();
        let meta = SnapshotMeta {
            mode_tag: ctx.mode().tag(),
            count,
            rank: None,
            nranks: ctx.num_ranks() as u32,
        };
        let cells = ctx.plan().safe_data().iter();
        let cells = cells
            .map(|name| Ok((name.clone(), ctx.registry().state(name)?)))
            .collect::<Result<_>>()?;
        let handoff = Handoff::capture(meta, cells, self.progress_bytes(count));
        let mut stats = self.stats.lock();
        stats.handoff_snapshots += 1;
        stats.last_handoff_bytes = handoff.payload_bytes();
        stats.last_handoff_time = t0.elapsed();
        *self.handoff.lock() = Some(handoff);
        Ok(())
    }

    fn may_gather_dirty(&self) -> bool {
        self.saved.load(Ordering::SeqCst)
    }

    fn note_peer_snapshot(&self, ctx: &Ctx) -> Result<()> {
        // The epoch reset: whatever this element had dirty has now been
        // captured at the root (the gather shipped it there). A record of
        // this element's own no longer has every write since it tracked.
        *self.generations.lock() = Generations::default();
        self.clear_dirty_fields(ctx)?;
        self.saved.store(true, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::ctx::{Ctx, RunShared, SeqEngine};
    use ppar_core::plan::{Plug, PointSet};
    use ppar_core::state::Registry;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ppar_hook_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn ckpt_plan(every: usize) -> Plan {
        Plan::new()
            .plug(Plug::SafeData { field: "G".into() })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["iter".into()]),
                every,
            })
            .plug(Plug::Ignorable {
                method: "sweep".into(),
            })
    }

    fn seq_ctx(plan: Plan, hook: Arc<CheckpointModule>) -> Ctx {
        Ctx::new_root(RunShared::new(
            Arc::new(plan),
            Arc::new(Registry::new()),
            Arc::new(SeqEngine),
            Some(hook),
            None,
        ))
    }

    #[test]
    fn fresh_run_counts_and_snapshots() {
        let dir = tmpdir("fresh");
        let plan = ckpt_plan(3);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        assert!(!module.detected_failure());
        assert!(!module.will_replay());

        let ctx = seq_ctx(ckpt_plan(3), module.clone());
        let g = ctx.alloc_vec("G", 4, 0.0f64);
        g.fill(1.5);

        for i in 1..=7u64 {
            ctx.point("iter");
            assert_eq!(module.count(), i);
        }
        // every=3 -> snapshots at points 3 and 6
        assert_eq!(module.stats().snapshots_taken, 2);
        let snap = module.store().get(None, None).unwrap().unwrap();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.field("G").unwrap().len(), 32);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_then_replay_restores_data() {
        let dir = tmpdir("replay");

        // --- run 1: snapshot at point 4, then "crash" (marker not cleared)
        {
            let plan = ckpt_plan(4);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            let ctx = seq_ctx(ckpt_plan(4), module.clone());
            let g = ctx.alloc_vec("G", 3, 0.0f64);
            for i in 1..=5 {
                g.set(0, i as f64); // state evolves
                ctx.point("iter");
            }
            // crash: no finish(), marker stays
            assert_eq!(module.stats().snapshots_taken, 1);
        }

        // --- run 2: detects failure, replays to point 4, restores G
        {
            let plan = ckpt_plan(4);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            assert!(module.detected_failure());
            assert!(module.will_replay());
            assert_eq!(module.replay_target(), 4);

            let ctx = seq_ctx(ckpt_plan(4), module.clone());
            let g = ctx.alloc_vec("G", 3, 0.0f64);

            // Ignorable methods are skipped while replaying.
            let mut ran = false;
            ctx.call("sweep", |_| ran = true);
            assert!(!ran);

            // Replay points 1..4; at 4 the engine gets LoadAndResume and the
            // sequential engine calls load_snapshot inline.
            for _ in 0..4 {
                ctx.point("iter");
            }
            assert!(!module.replaying());
            assert_eq!(g.get(0), 4.0, "G restored from snapshot at point 4");

            // Live again: ignorables run.
            let mut ran = false;
            ctx.call("sweep", |_| ran = true);
            assert!(ran);

            let stats = module.stats();
            assert_eq!(stats.replayed_points, 4);
            assert!(stats.load_time > Duration::ZERO);

            ctx.finish();
        }

        // --- run 3: clean previous finish -> fresh start
        {
            let plan = ckpt_plan(4);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            assert!(!module.detected_failure());
            assert!(!module.will_replay());
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory written before the `PPARPRG1` cursor existed: its
    /// snapshot has no progress field. It must still restore, classically —
    /// progress = start, every safe point up to the target re-visited.
    #[test]
    fn snapshot_without_progress_field_replays_from_start() {
        let dir = tmpdir("no_cursor");
        let store = CheckpointStore::new(&dir).unwrap();
        let payload: Vec<u8> = [7.0f64, 8.0, 9.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 4,
            rank: None,
            nranks: 1,
        };
        store
            .put(&Record::Full(&meta, &[("G", FieldSource::Bytes(&payload))]))
            .unwrap();
        store.set_marker().unwrap();

        let module = CheckpointModule::create(&dir, &ckpt_plan(4)).unwrap();
        assert_eq!(module.replay_target(), 4);
        assert!(module.resume_progress_bytes().is_empty());
        assert_eq!(module.loop_resume(0, "iter", 0, 10), None);
        let ctx = seq_ctx(ckpt_plan(4), module.clone());
        let g = ctx.alloc_vec("G", 3, 0.0f64);
        for _ in 0..4 {
            ctx.point("iter");
        }
        assert!(!module.replaying());
        assert_eq!(g.to_vec(), vec![7.0, 8.0, 9.0]);
        let stats = module.stats();
        assert_eq!((stats.replayed_points, stats.resumed_at_point), (4, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_before_first_snapshot_is_fresh_start() {
        let dir = tmpdir("early_fail");
        {
            let plan = ckpt_plan(100);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            let ctx = seq_ctx(ckpt_plan(100), module);
            ctx.point("iter"); // no snapshot taken, then crash
        }
        let plan = ckpt_plan(100);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        assert!(module.detected_failure());
        assert!(!module.will_replay(), "no snapshot -> restart from scratch");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_zero_counts_but_never_snapshots() {
        let dir = tmpdir("count_only");
        let plan = ckpt_plan(0);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        let ctx = seq_ctx(ckpt_plan(0), module.clone());
        ctx.alloc_vec("G", 2, 0.0f64);
        for _ in 0..50 {
            ctx.point("iter");
        }
        assert_eq!(module.count(), 50);
        assert_eq!(module.stats().snapshots_taken, 0);
        assert!(module.store().get(None, None).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn incremental_plan(every: usize, full_every: usize) -> Plan {
        ckpt_plan(every).plug(Plug::IncrementalCkpt { full_every })
    }

    /// Master delta files in `dir`, whoever wrote them.
    fn deltas_in(dir: &Path) -> Vec<String> {
        let names = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name());
        let names = names.map(|n| n.to_string_lossy().into_owned());
        names
            .filter(|n| n.starts_with("ckpt_master_delta_"))
            .collect()
    }

    /// Incremental mode writes no chain: every save is one full record,
    /// and a steady one writes what changed, far below the record.
    #[test]
    fn incremental_mode_patches_one_record_per_save() {
        let dir = tmpdir("inc_chain");
        let plan = incremental_plan(1, 3); // snapshot every point
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        let ctx = seq_ctx(incremental_plan(1, 3), module.clone());
        // Large enough that one-chunk patches are much smaller than a record.
        let g = ctx.alloc_vec("G", 40_000, 0.0f64);

        // Points 1 and 2 write whole: no spare holds a record of theirs yet.
        for i in 1..=2u64 {
            g.set(0, i as f64);
            ctx.point("iter");
        }
        let full_bytes = module.stats().last_save_bytes;

        // Points 3..5: each claims the spare and patches what changed.
        for i in 3..=5u64 {
            let before = module.stats().bytes_put;
            g.set(5, i as f64);
            ctx.point("iter");
            let s = module.stats();
            assert!(
                (s.bytes_put - before) * 4 < full_bytes,
                "one-chunk save wrote {}B of a {full_bytes}B record",
                s.bytes_put - before
            );
            assert_eq!(s.last_save_bytes, full_bytes);
            assert_eq!(module.store().get(None, None).unwrap().unwrap().count, i);
            assert_eq!(
                deltas_in(&dir),
                Vec::<String>::new(),
                "no chain at point {i}"
            );
        }
        let s = module.stats();
        assert_eq!(s.snapshots_taken, 5);
        // Cumulative bytes are record lengths.
        assert_eq!(s.bytes_written, 5 * full_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_crash_replays_to_last_save_and_restores_exactly() {
        let dir = tmpdir("inc_replay");

        // --- run 1: saves at points 2, 4, 6 and 8, then crash.
        {
            let plan = incremental_plan(2, 10);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            let ctx = seq_ctx(incremental_plan(2, 10), module.clone());
            let g = ctx.alloc_vec("G", 3000, 0.0f64);
            for i in 1..=9u64 {
                g.set((i as usize * 7) % 3000, i as f64);
                ctx.point("iter");
            }
            let s = module.stats();
            assert_eq!(s.snapshots_taken, 4);
            assert!(deltas_in(&dir).is_empty());
        }

        // --- run 2: replay target is the last save's count, data matches.
        {
            let plan = incremental_plan(2, 10);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            assert!(module.detected_failure());
            assert_eq!(module.replay_target(), 8);

            let ctx = seq_ctx(incremental_plan(2, 10), module.clone());
            let g = ctx.alloc_vec("G", 3000, 0.0f64);
            // Rebuild the expected state by replaying the app deterministically.
            let mut expected = vec![0.0f64; 3000];
            for i in 1..=8u64 {
                expected[(i as usize * 7) % 3000] = i as f64;
            }
            for _ in 0..8 {
                ctx.point("iter");
            }
            assert!(!module.replaying());
            assert_eq!(g.to_vec(), expected, "the restore must be exact");

            ctx.point("iter"); // count 9
            ctx.point("iter"); // count 10 -> snapshot (every=2)
            let s = module.stats();
            assert_eq!(s.snapshots_taken, 1);
            ctx.finish();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the group's start-up fold holds: `(key, safe point)`.
    fn stash(module: &CheckpointModule) -> Option<(Option<u32>, u64)> {
        let slot = module.group_resume.prefetched.lock();
        slot.as_ref().map(|(key, merged)| (*key, merged.count()))
    }

    /// One full record of a single-field `G` at `count`, put under `rank`.
    fn put_g(to: &dyn CkptTransport, rank: Option<u32>, count: u64) {
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count,
            rank,
            nranks: 1,
        };
        let payload = [count as u8; 24];
        to.put(&Record::Full(&meta, &[("G", FieldSource::Bytes(&payload))]))
            .unwrap();
    }

    /// The start-up fold is a state-sized buffer: it is kept only while a
    /// load can use it, and the load it belongs to empties the slot whether
    /// or not the record is the one it reads.
    #[test]
    fn startup_fold_is_held_only_until_the_load_it_serves() {
        let plan = ckpt_plan(4);
        let crashed = |tag: &str, records: &[(Option<u32>, u64)], commit: Option<u64>| {
            let dir = tmpdir(tag);
            let store = CheckpointStore::new(&dir).unwrap();
            for (rank, count) in records {
                put_g(&store, *rank, *count);
            }
            if let Some(count) = commit {
                store.commit_group(count).unwrap();
            }
            store.set_marker().unwrap();
            dir
        };

        // Claimed: the restart's load installs the fold and leaves nothing.
        let dir = crashed("stash_claimed", &[(None, 4)], None);
        let opened = Instant::now();
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        assert_eq!(stash(&module), Some((None, 4)));
        let startup = module.stats().load_time;
        assert!(startup > Duration::ZERO, "the fold is charged to the load");
        let ctx = seq_ctx(ckpt_plan(4), module.clone());
        let g = ctx.alloc_vec("G", 3, 0.0f64);
        for _ in 0..4 {
            ctx.point("iter");
        }
        let wall = opened.elapsed();
        assert_eq!(stash(&module), None);
        assert_eq!(g.to_vec(), vec![f64::from_le_bytes([4; 8]); 3]);
        let stats = module.stats();
        assert!(stats.load_time > startup && stats.load_time + stats.replay_time <= wall);
        std::fs::remove_dir_all(&dir).unwrap();

        // Key mismatch: only shard 0's record exists, the sequential load
        // reads the master chain. It fails — and still empties the slot.
        let dir = crashed("stash_key", &[(Some(0), 4)], None);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        assert_eq!(stash(&module), Some((Some(0), 4)));
        let ctx = seq_ctx(ckpt_plan(4), module.clone());
        ctx.alloc_vec("G", 3, 0.0f64);
        module.sync_thread_clock(4);
        assert!(module.load_snapshot(&ctx).is_err());
        assert_eq!(stash(&module), None);
        std::fs::remove_dir_all(&dir).unwrap();

        // Never kept: a tip that is not the commit point, a failure that
        // resolves to a fresh run, and a resume source armed over the disk.
        let dir = crashed("stash_torn", &[(Some(0), 6)], Some(4));
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        assert_eq!((module.replay_target(), stash(&module)), (4, None));
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = crashed("stash_fresh", &[(None, 0)], None);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        assert!(module.detected_failure() && !module.will_replay());
        assert_eq!(stash(&module), None);
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = crashed("stash_armed", &[(None, 4)], None);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        let predecessor = CheckpointModule::create_group_without_dir(&ckpt_plan(0), 1)
            .unwrap()
            .pop()
            .unwrap();
        let ctx = seq_ctx(ckpt_plan(0), predecessor.clone());
        ctx.alloc_vec("G", 3, 9.0f64);
        for _ in 0..9 {
            ctx.point("iter");
        }
        predecessor.handoff_snapshot(&ctx).unwrap();
        let handoff = predecessor.take_handoff().expect("frozen at the crossing");
        assert_eq!(module.arm_resume(Arc::new(handoff)), 9);
        assert_eq!(stash(&module), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Plant a master chain over the record at `base_count`, as an older
    /// build's incremental run left it: delta `seq` at `base_count + 2 ×
    /// seq` sets element `seq` of a 3000-element `G` to `-seq`.
    fn plant_chain(dir: &Path, base_count: u64, deltas: u32) {
        let store = CheckpointStore::new(dir).unwrap();
        for seq in 1..=deltas {
            let meta = crate::delta::DeltaMeta {
                mode_tag: "seq".into(),
                count: base_count + 2 * u64::from(seq),
                base_count,
                seq,
                rank: None,
                nranks: 1,
            };
            let g = ppar_core::shared::SharedVec::new(3000, 0.0f64);
            g.set(seq as usize, -f64::from(seq));
            let at = seq as usize * 8..seq as usize * 8 + 8;
            let sparse = crate::store::DeltaSource::DirtyCell {
                cell: &g,
                ranges: std::slice::from_ref(&at),
            };
            store
                .put_master_delta(&meta, &[("G", sparse)], &mut Vec::new())
                .unwrap();
        }
    }

    /// A chain that fails its checks fails the start-up — before any cell
    /// exists to be written — unless a group-commit point names the target,
    /// in which case only the cursor and the stash are lost.
    #[test]
    fn a_corrupt_chain_fails_creation_unless_a_commit_point_names_the_target() {
        let dir = tmpdir("corrupt_delta");
        {
            let module = CheckpointModule::create(&dir, &incremental_plan(2, 10)).unwrap();
            let ctx = seq_ctx(incremental_plan(2, 10), module);
            let g = ctx.alloc_vec("G", 3000, 0.0f64);
            for i in 1..=3u64 {
                g.set(i as usize, i as f64);
                ctx.point("iter");
            }
        }
        // The base at 2, then deltas at 4, 6 and 8.
        plant_chain(&dir, 2, 3);
        let delta = dir.join("ckpt_master_delta_2.bin");
        let mut bytes = std::fs::read(&delta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&delta, &bytes).unwrap();
        let created = CheckpointModule::create(&dir, &incremental_plan(2, 10));
        assert!(
            matches!(created, Err(PparError::CorruptCheckpoint(_))),
            "a flipped byte in delta 2 must surface at start-up"
        );

        let store = CheckpointStore::new(&dir).unwrap();
        store.commit_group(6).unwrap();
        let module = CheckpointModule::create(&dir, &incremental_plan(2, 10)).unwrap();
        assert_eq!(module.replay_target(), 6);
        assert!(module.resume_progress_bytes().is_empty());
        assert_eq!(stash(&module), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_run_purges_previous_generations_delta_chain() {
        let dir = tmpdir("inc_gen");

        // --- generation 1: completes cleanly, leaving a base behind
        // (finish clears only the RUNNING marker), and a chain over it, as
        // an older build's incremental run did.
        {
            let plan = incremental_plan(1, 5);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            let ctx = seq_ctx(incremental_plan(1, 5), module.clone());
            let g = ctx.alloc_vec("G", 3000, 0.0f64);
            g.set(0, 1.0);
            ctx.point("iter");
            ctx.finish();
        }
        plant_chain(&dir, 1, 2);
        assert!(dir.join("ckpt_master_delta_1.bin").exists());

        // --- generation 2: a fresh run repeats the same safe-point
        // schedule, so generation 1's deltas (base_count 1) would collide
        // with the new base's count if a crash hit between the base's
        // commit and its chain's retirement. Creation must purge them up
        // front.
        {
            let plan = incremental_plan(1, 5);
            let module = CheckpointModule::create(&dir, &plan).unwrap();
            assert!(!module.will_replay(), "clean finish -> fresh run");
            assert!(
                !dir.join("ckpt_master_delta_1.bin").exists(),
                "stale chain from the previous generation must be purged"
            );
            // Nor may the old base serve a restart of this run.
            assert!(module.store().get(None, None).unwrap().is_none());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_track_last_and_cumulative_save_bytes() {
        let dir = tmpdir("stats_bytes");
        let plan = incremental_plan(1, 8);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        let ctx = seq_ctx(incremental_plan(1, 8), module.clone());
        let g = ctx.alloc_vec("G", 100_000, 0.0f64);

        ctx.point("iter"); // written whole into a fresh file
        let after_full = module.stats();
        assert_eq!(after_full.last_save_bytes, after_full.bytes_written);
        assert_eq!(after_full.bytes_put, after_full.bytes_written);
        assert!(
            after_full.last_save_bytes > 100_000 * 8,
            "the record holds all data"
        );
        ctx.point("iter"); // whole again: no spare holds a record yet

        g.set(42, 1.0);
        let before = module.stats();
        ctx.point("iter"); // patches the spare: one chunk changed
        let after_patch = module.stats();
        assert_eq!(
            after_patch.bytes_written,
            before.bytes_written + after_patch.last_save_bytes,
            "cumulative save bytes are the sum of per-snapshot sizes"
        );
        assert_eq!(after_patch.last_save_bytes, after_full.last_save_bytes);
        assert!(
            after_patch.bytes_put - before.bytes_put < after_full.last_save_bytes / 10,
            "patch {}B vs full {}B",
            after_patch.bytes_put - before.bytes_put,
            after_full.last_save_bytes
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The view a frozen hand-off lends is the golden record: re-encoded by
    /// `write_record`, it equals byte for byte the full record of the same
    /// state — for cells that lend their memory (`SharedVec`, `SharedGrid`)
    /// and one that is encoded at capture (`ValueCell`) alike — and the
    /// hand-off holds that one view at one safe point, with its cursor.
    #[test]
    fn a_frozen_handoff_lends_the_golden_record() {
        let plan = || {
            Plan::new()
                .plug(Plug::SafeData { field: "V".into() })
                .plug(Plug::SafeData { field: "G".into() })
                .plug(Plug::SafeData { field: "E".into() })
                .plug(Plug::SafePoints {
                    points: PointSet::Named(vec!["iter".into()]),
                    every: 0,
                })
        };
        let module = CheckpointModule::create_group_without_dir(&plan(), 1)
            .unwrap()
            .pop()
            .unwrap();
        let ctx = seq_ctx(plan(), module.clone());
        let v = ctx.alloc_vec("V", 37, 0.0f64);
        let g = ctx.alloc_grid("G", 5, 7, 0.0f64);
        let e = ctx.alloc_value("E", 0.0f64);
        v.copy_in_from_fn(|i| (i as f64).sin());
        g.flat().copy_in_from_fn(|i| i as f64 * -0.25);
        e.set(1.0 / 3.0);
        for _ in 0..3 {
            ctx.point("iter");
        }
        module.note_loop_iter(0, "iters", 0, 10, 2);

        module.handoff_snapshot(&ctx).unwrap();
        let handoff = module.take_handoff().expect("the crossing froze the state");
        assert!(module.take_handoff().is_none(), "taken once");
        let mut lent = Vec::new();
        handoff
            .lend(&mut |view| view.write_record(&mut lent).map(drop))
            .unwrap();

        let meta = SnapshotMeta {
            mode_tag: ctx.mode().tag(),
            count: 3,
            rank: None,
            nranks: 1,
        };
        let progress = module.progress_bytes(3);
        let fields = [
            ("V", FieldSource::Cell(&*v)),
            ("G", FieldSource::Cell(&*g)),
            ("E", FieldSource::Cell(&*e)),
            (PROGRESS_FIELD, FieldSource::Bytes(&progress)),
        ];
        let (_, golden) = Record::Full(&meta, &fields).encode(Vec::new()).unwrap();
        assert!(lent == golden, "the lent view is the golden record");
        let stats = module.stats();
        assert_eq!(stats.handoff_snapshots, 1);
        assert_eq!(stats.last_handoff_bytes, handoff.payload_bytes());

        // One master view at one safe point, its cursor frozen with it.
        assert_eq!(handoff.count(), 3);
        assert_eq!(handoff.cursor().map(|c| c.encode()), Some(progress));
    }

    /// The save-time oracle: a write through a cell view that no
    /// `mark_written` declares leaves a block whose cached CRC no longer
    /// holds, and the next save, which would trust that CRC, panics naming
    /// the field, the block and where it lies in the payload.
    #[cfg(debug_assertions)]
    #[test]
    fn a_write_the_tracker_missed_fails_the_next_save() {
        let dir = tmpdir("oracle");
        let module = CheckpointModule::create(&dir, &ckpt_plan(1)).unwrap();
        let ctx = seq_ctx(ckpt_plan(1), module.clone());
        // 800 000 bytes: three whole blocks and a partial one.
        let g = ctx.alloc_vec("G", 100_000, 0.0f64);
        ctx.point("iter");
        g.set(3, 1.0);
        ctx.point("iter");
        // Element 70 000 lies in block 2; nothing marks it written.
        g.cells(70_000..70_001)[0].set(7.0);
        let saved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.point("iter")));
        let panic = saved.expect_err("a save over a missed write must panic");
        let why = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            why.contains("field \"G\", block 2, payload bytes 524288..786432"),
            "{why}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_new_thread_adopts_master_clock() {
        let dir = tmpdir("sync");
        let plan = ckpt_plan(0);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        let ctx = seq_ctx(ckpt_plan(0), module.clone());
        ctx.alloc_vec("G", 2, 0.0f64);
        for _ in 0..9 {
            ctx.point("iter");
        }
        let captured = module.count(); // captured on the forking thread
        let m = module.clone();
        std::thread::spawn(move || {
            assert_eq!(m.count(), 0, "fresh thread has a zero clock");
            m.sync_thread_clock(captured);
            assert_eq!(m.count(), 9, "after sync the thread matches the master");
        })
        .join()
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
