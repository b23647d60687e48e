//! A steady flat save rewrites only what changed since the record its
//! claimed spare holds: the checkpoint module patches the spare when it is
//! one of the module's own last two full records, and writes the whole
//! record otherwise. The published record must not notice. Covered here:
//!
//! * after every save of a script — a moving 5% window, two overlapping
//!   windows, an untracked value beside the tracked vector, a cursor whose
//!   length changes, a save that rewrites everything, a mode change to a
//!   tag of another length — the record equals the golden encoding of the
//!   state, byte for byte;
//! * a spare that is not the module's record (another count, or the same
//!   count with another CRC) is rewritten whole;
//! * with incremental saves (`full_every = 2`) between the full records —
//!   so the blocks a full save checksums are those changed since the newest
//!   full record, across two deltas — every full record is golden, through
//!   a dense step and a cursor whose length changes;
//! * under `dist2` master-collect, where every save after the first
//!   gathers only what each element wrote, every record of the root is
//!   golden, and a steady save writes at most twice the bytes its step
//!   dirtied plus what lies outside the field's payload;
//! * under `dist2` local snapshots, with incremental mode on or off, every
//!   shard is a full record patched into the `_prev` its sink claims: each
//!   one golden, a steady save bounded like the master's by what was
//!   dirtied inside the owned block, no delta taken and no shard delta
//!   file created;
//! * a shard save torn before its group commit leaves every shard able to
//!   serve the committed point, and the relaunch finishes bitwise;
//! * a byte flipped in a clean chunk of a verified spare survives the
//!   patch — the next record differs from golden in exactly that byte —
//!   and fails the record's CRC at restore, and a launch over it fails;
//! * an `smp2` run stopped after several patched saves restarts bitwise in
//!   `seq`, `smp2` and `dist2` master-collect;
//! * a launch whose restore fails after start-up returns the error instead
//!   of hanging — a patched record's failure mode is a CRC error at load —
//!   and so does a launch whose save fails, in every deployment and under
//!   both strategies — a `tcp2` job's too, whose ranks take the failed save
//!   for what it is instead of a peer's death to recover from;
//! * in a debug build, a write no mark declares panics the next save with
//!   the save-time oracle's message, in `seq`, `smp2` and `dist2` under
//!   both strategies, and leaves no line of execution waiting; SOR's
//!   kernel, which marks its rows by hand, passes the oracle on shards
//!   of several CRC blocks.
//!
//! Every test works in a directory of its own. The tests rewrite spares by
//! name and rely on the link count a claim checks, so they run on Unix
//! only.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ppar_adapt::netrun::{free_loopback_addr, NetConfig};
use ppar_adapt::{launch, run_net_rank, AppStatus, Deploy};
use ppar_ckpt::store::{FieldSource, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CheckpointModule, CheckpointStore, Record, SnapshotView};
use ppar_core::ctx::{CkptHook, Ctx, Engine, RunShared, SeqEngine};
use ppar_core::error::PparError;
use ppar_core::partition::{block_owned, FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, UpdateAction};
use ppar_core::runtime::{TeamEngine, PROGRESS_FIELD};
use ppar_core::schedule::Schedule;
use ppar_core::shared::{SharedVec, DIRTY_CHUNK_BYTES};
use ppar_core::state::{Registry, StateCell, ValueCell};
use ppar_dsm::{run_spmd, SpmdConfig};
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

/// 4 MiB of `f64`: a payload the writer checksums by claimed blocks.
const N: usize = 1 << 19;
/// A 5% window of `G`.
const WINDOW: usize = N / 20;
const RECORD: &str = "ckpt_master.bin";
const SPARE: &str = "ckpt_master.bin.spare";

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_patch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn module_plan() -> Plan {
    Plan::new()
        .plug(Plug::SafeData { field: "G".into() })
        .plug(Plug::SafeData { field: "V".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["sp".into()]),
            every: 1,
        })
}

/// One checkpoint module saving a tracked vector `G` and an untracked
/// value `V` at every crossing of `sp`, driven by hand through contexts
/// that share its registry — so the engine, and with it the mode tag, can
/// change between saves.
struct Saver {
    dir: PathBuf,
    plan: Arc<Plan>,
    registry: Arc<Registry>,
    module: Arc<CheckpointModule>,
    g: Arc<SharedVec<f64>>,
    v: Arc<ValueCell<f64>>,
}

impl Saver {
    fn new(tag: &str) -> Saver {
        Saver::with_plan(tag, module_plan())
    }

    fn with_plan(tag: &str, plan: Plan) -> Saver {
        let dir = scratch(tag);
        let plan = Arc::new(plan);
        let module = CheckpointModule::create(&dir, &plan).unwrap();
        let registry = Arc::new(Registry::new());
        let mut saver = Saver {
            dir,
            plan,
            registry,
            module,
            g: Arc::new(SharedVec::new(0, 0.0)),
            v: Arc::new(ValueCell::new(0.0)),
        };
        let ctx = saver.ctx(Arc::new(SeqEngine));
        saver.g = ctx.alloc_vec("G", N, 0.0f64);
        saver.g.copy_in_from_fn(|i| (i as f64).sqrt());
        saver.v = ctx.alloc_value("V", 0.5f64);
        saver
    }

    fn ctx(&self, engine: Arc<dyn Engine>) -> Ctx {
        let hook = self.module.clone() as Arc<dyn CkptHook>;
        let shared = RunShared::new(
            self.plan.clone(),
            self.registry.clone(),
            engine,
            Some(hook),
            None,
        );
        Ctx::new_root(shared)
    }

    /// Rewrite `G[start..start + len]` (wrapping) for `step`.
    fn touch(&self, start: usize, len: usize, step: usize) {
        for k in 0..len {
            let i = (start + k) % N;
            self.g
                .set(i, self.g.get(i) * 0.5 + (step * 7 + i % 13) as f64);
        }
    }

    fn record(&self) -> Vec<u8> {
        std::fs::read(self.dir.join(RECORD)).unwrap()
    }

    /// The golden encoding of the state `ctx` just saved: `G` and `V` as
    /// they are in memory, the cursor the record carries (always written
    /// whole), through a one-pass encode into memory.
    fn golden(&self, ctx: &Ctx, record: &[u8]) -> Vec<u8> {
        let count = self.module.count();
        let fields = [
            ("G", FieldSource::Cell(&*self.g)),
            ("V", FieldSource::Cell(&*self.v)),
        ];
        golden(ctx, count, None, record, &fields)
    }

    /// Save at `sp` and check the published record against golden.
    fn save(&self, ctx: &Ctx, case: &str) {
        ctx.point("sp");
        let record = self.record();
        // Not `assert_eq!`: a mismatch would print megabytes.
        assert!(record == self.golden(ctx, &record), "{case}: not golden");
    }

    /// Save at `sp` as an incremental plan does, a delta or a full record,
    /// and check a full record against golden.
    fn save_chain(&self, ctx: &Ctx, case: &str) {
        let full = self.module.stats().full_snapshots;
        ctx.point("sp");
        if self.module.stats().full_snapshots > full {
            let record = self.record();
            assert!(record == self.golden(ctx, &record), "{case}: not golden");
        }
    }

    /// Where `G`'s payload starts in the record.
    fn g_offset(&self, ctx: &Ctx) -> usize {
        let tag = ctx.mode().tag();
        (8 + 8 + tag.len() + 8 + 4 + 4 + 4) + 8 + 1 + 8
    }
}

impl Drop for Saver {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The golden encoding of `fields` as they are in memory, saved by `ctx` at
/// safe point `count` under `rank`'s key with the cursor `record` carries
/// (always written whole), through a one-pass encode into memory.
fn golden(
    ctx: &Ctx,
    count: u64,
    rank: Option<u32>,
    record: &[u8],
    fields: &[(&str, FieldSource<'_>)],
) -> Vec<u8> {
    let view = SnapshotView::decode_trusted(record).unwrap();
    let progress = view.field(PROGRESS_FIELD).unwrap().to_vec();
    let meta = SnapshotMeta {
        mode_tag: ctx.mode().tag(),
        count,
        rank,
        nranks: ctx.num_ranks() as u32,
    };
    let mut sources: Vec<_> = fields
        .iter()
        .map(|(name, source)| {
            let source = match source {
                FieldSource::Cell(cell) => FieldSource::Cell(*cell),
                FieldSource::Bytes(bytes) => FieldSource::Bytes(bytes),
            };
            (*name, source)
        })
        .collect();
    sources.push((PROGRESS_FIELD, FieldSource::Bytes(&progress)));
    Record::Full(&meta, &sources).encode(Vec::new()).unwrap().1
}

/// After every save of the script the record is golden, whichever way the
/// save wrote it: whole, or patched over the spare it claimed.
#[test]
fn every_save_of_a_patching_script_publishes_the_golden_record() {
    let saver = Saver::new("golden");
    let seq = saver.ctx(Arc::new(SeqEngine));
    // Cold save, then a fresh file: nothing to claim yet.
    saver.save(&seq, "cold");
    let mut step = 1;
    let mut window = |saver: &Saver, ctx: &Ctx, case: &str| {
        saver.touch(step * 3 * WINDOW / 2, WINDOW, step);
        saver.v.set(step as f64);
        saver.save(ctx, &format!("{case} {step}"));
        step += 1;
    };
    for _ in 0..4 {
        window(&saver, &seq, "moving window");
    }
    // Two overlapping windows.
    saver.touch(N / 3, WINDOW, 90);
    saver.touch(N / 3 + WINDOW / 2, WINDOW, 91);
    saver.save(&seq, "overlapping windows");
    // The cursor grows a frame and then loses it: its length changes.
    seq.iter_loop("steps", 0..2, |ctx, i| {
        saver.touch(N / 2 + i * WINDOW, WINDOW, 100 + i);
        saver.save(ctx, &format!("in a loop {i}"));
        true
    });
    window(&saver, &seq, "after the loop");
    // Everything changes.
    saver.g.copy_in_from_fn(|i| i as f64 * -0.25);
    saver.save(&seq, "dense");
    window(&saver, &seq, "after dense");
    window(&saver, &seq, "after dense");
    // A mode tag of another length moves every payload.
    let smp2 = saver.ctx(TeamEngine::new(2, 2));
    assert_ne!(smp2.mode().tag().len(), seq.mode().tag().len());
    for _ in 0..3 {
        window(&saver, &smp2, "smp2");
    }
}

/// With incremental saves (`full_every = 2`) two deltas lie between full
/// records, so the blocks a full save checksums are those the deltas and
/// the save itself changed since the newest full record — and the spare it
/// patches holds the record before that. Every full record is golden, over
/// moving windows, a loop whose cursor changes length and a dense step,
/// and the chain folds to the state.
#[test]
fn incremental_saves_between_full_records_keep_every_record_golden() {
    let plan = module_plan().plug(Plug::IncrementalCkpt { full_every: 2 });
    let saver = Saver::with_plan("incremental", plan);
    let seq = saver.ctx(Arc::new(SeqEngine));
    saver.save_chain(&seq, "cold");
    let window = |step: usize| {
        saver.touch(step * 3 * WINDOW / 2, WINDOW, step);
        saver.v.set(step as f64);
        saver.save_chain(&seq, &format!("window {step}"));
    };
    (1..=4).for_each(window);
    seq.iter_loop("steps", 0..3, |ctx, i| {
        saver.touch(N / 2 + i * WINDOW, WINDOW, 100 + i);
        saver.save_chain(ctx, &format!("in a loop {i}"));
        true
    });
    saver.g.copy_in_from_fn(|i| i as f64 * 0.75);
    saver.save_chain(&seq, "dense");
    (5..=8).for_each(window);
    let stats = saver.module.stats();
    // Thirteen saves: full at 1, 4, …, 13; the dense step is delta 9.
    assert_eq!(
        (stats.full_snapshots, stats.delta_snapshots),
        (5, 8),
        "{stats:?}"
    );
    assert!(
        stats.bytes_put < stats.bytes_written,
        "no full save was patched: {stats:?}"
    );
    let store = CheckpointStore::new(&saver.dir).unwrap();
    let folded = store.get(None, None).unwrap().unwrap().encode();
    assert!(
        folded == saver.golden(&seq, &folded),
        "the fold is not golden"
    );
}

/// A spare of the right length that is not one of the module's records —
/// another count, or the same count and another CRC — is not trusted: the
/// save rewrites the whole record, and it is golden.
#[test]
fn a_spare_that_is_not_the_modules_record_is_rewritten_whole() {
    for same_count in [false, true] {
        let saver = Saver::new(&format!("tampered_{same_count}"));
        let seq = saver.ctx(Arc::new(SeqEngine));
        for step in 0..3 {
            saver.touch(step * WINDOW, WINDOW, step);
            saver.save(&seq, "steady");
        }
        // The spare holds the record of count 2; forge one of its length.
        let spare = saver.dir.join(SPARE);
        let held = std::fs::read(&spare).unwrap();
        let view = SnapshotView::decode(&held).unwrap();
        let mut forged = view.to_snapshot();
        forged.count = if same_count { 2 } else { 1_000 };
        assert_eq!(view.meta.count, 2);
        forged.fields[0].1.iter_mut().for_each(|b| *b = 0xA5);
        let forged = forged.encode();
        assert_eq!(forged.len(), held.len());
        assert_ne!(forged[forged.len() - 4..], held[held.len() - 4..]);
        std::fs::write(&spare, &forged).unwrap();

        saver.touch(7 * WINDOW, WINDOW, 7);
        saver.save(&seq, &format!("same_count={same_count}"));
    }
}

/// A byte flipped in a clean chunk of the spare, header and trailer left
/// as they were, is skipped by the patch: the next record is golden but
/// for that byte, which proves the span was never written. The record then
/// fails its CRC at restore, and a launch over it fails.
#[test]
fn a_flipped_clean_byte_in_the_spare_surfaces_as_a_crc_failure() {
    let saver = Saver::new("flipped");
    let seq = saver.ctx(Arc::new(SeqEngine));
    for step in 0..3 {
        saver.touch(step * WINDOW, WINDOW, step);
        saver.save(&seq, "steady");
    }
    // The next save rewrites what changed since the spare's record: the
    // windows of the last save and of this one. The last chunk is clean.
    let at = saver.g_offset(&seq) + N * 8 - DIRTY_CHUNK_BYTES / 2;
    let spare = saver.dir.join(SPARE);
    let mut held = std::fs::read(&spare).unwrap();
    held[at] ^= 0x5A;
    std::fs::write(&spare, &held).unwrap();

    saver.touch(3 * WINDOW, WINDOW, 3);
    seq.point("sp");
    let record = saver.record();
    let golden = saver.golden(&seq, &record);
    assert_eq!(record.len(), golden.len());
    let differ: Vec<usize> = (0..record.len())
        .filter(|&i| record[i] != golden[i])
        .collect();
    assert_eq!(differ, [at], "the patch wrote into the clean chunk");

    let store = CheckpointStore::new(&saver.dir).unwrap();
    match store.get(None, None) {
        Err(PparError::CorruptCheckpoint(why)) => assert!(why.contains("CRC"), "{why}"),
        other => panic!("expected a CRC failure, got {other:?}"),
    }
    // The module never finished: the marker is there, and the restart's
    // read of the record fails the launch.
    let plan = module_plan();
    let relaunch = launch(&Deploy::Seq, plan, Some(&saver.dir), None, |ctx| {
        let g = ctx.alloc_vec("G", N, 0.0f64);
        ctx.alloc_value("V", 0.0f64);
        ctx.point("sp");
        (AppStatus::Completed, g.get(0))
    });
    assert!(
        matches!(relaunch, Err(PparError::CorruptCheckpoint(_))),
        "a launch over a corrupt record must fail"
    );
}

const STEPS: usize = 9;
const STOP: usize = 7;

/// Every step rewrites a 5% window of `V` and saves; a run given
/// `stop_after` ends right after that step's save.
fn app(ctx: &Ctx, stop_after: Option<usize>) -> (AppStatus, u64) {
    let v = ctx.alloc_vec("V", N, 0.0f64);
    ctx.call("init", |_| v.copy_in_from_fn(|i| (i % 1000) as f64));
    ctx.region("run", |ctx| {
        ctx.iter_loop("steps", 0..STEPS, |ctx, step| {
            let start = step * 7 * WINDOW / 3 % (N - WINDOW);
            ctx.call("touch", |ctx| {
                ctx.each("cells", start..start + WINDOW, |_, i| {
                    v.set(i, v.get(i) * 0.5 + (step * N + i) as f64);
                });
            });
            ctx.point("sp");
            Some(step + 1) != stop_after
        });
    });
    if stop_after.is_some() {
        return (AppStatus::Crashed, 0);
    }
    ctx.point("collect");
    let folded = v.as_slice().iter().fold(0u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    });
    (AppStatus::Completed, folded)
}

fn run_plan() -> Plan {
    run_plan_with(DistCkptStrategy::MasterCollect)
}

fn run_plan_with(strategy: DistCkptStrategy) -> Plan {
    Plan::new()
        .plug(Plug::Field {
            field: "V".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::ParallelMethod {
            method: "run".into(),
        })
        .plug(Plug::For {
            loop_name: "cells".into(),
            schedule: Schedule::Block,
        })
        .plug(Plug::DistFor {
            loop_name: "cells".into(),
            field: "V".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "V".into(),
            action: UpdateAction::Gather,
        })
        .plug(Plug::SafeData { field: "V".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["sp".into()]),
            every: 1,
        })
        .plug(Plug::Ignorable {
            method: "touch".into(),
        })
        .plug(Plug::Ignorable {
            method: "init".into(),
        })
        .plug(Plug::DistCkpt { strategy })
}

/// Copy the files of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// An `smp2` run stopped after its seventh save — saves three to seven
/// rewrite the spare in place — restarts bitwise from that save in `seq`,
/// `smp2` and `dist2` master-collect.
#[test]
fn an_smp2_run_stopped_after_patched_saves_restarts_bitwise_in_every_mode() {
    let want = launch(&Deploy::Seq, run_plan(), None, None, |ctx| app(ctx, None))
        .unwrap()
        .results[0]
        .1;
    let smp2 = Deploy::Smp {
        threads: 2,
        max_threads: 2,
    };
    let stopped = scratch("stopped");
    let out = launch(&smp2, run_plan(), Some(&stopped), None, |ctx| {
        app(ctx, Some(STOP))
    })
    .unwrap();
    assert!(!out.completed());
    assert_eq!(out.stats.unwrap().snapshots_taken, STOP as u64);
    assert!(stopped.join(SPARE).exists());

    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    for (tag, deploy) in [("seq", Deploy::Seq), ("smp2", smp2), ("dist2", dist2)] {
        let dir = scratch(&format!("restart_{tag}"));
        copy_dir(&stopped, &dir);
        let out = launch(&deploy, run_plan(), Some(&dir), None, |ctx| app(ctx, None)).unwrap();
        assert!(out.completed() && out.replayed, "{tag}");
        assert_eq!(out.results[0].1, want, "{tag}: not bitwise");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&stopped);
}

/// A shard save torn before its group commit: under `dist2` local
/// snapshots with `IncrementalCkpt { full_every: 1 }` and a save at every
/// step, a run stops right after its third save, and the commit point is
/// rewound to the second — as if the third save had torn after the shards
/// landed but before the group commit. Every shard still serves safe point
/// 2, and the relaunch restores there and finishes bitwise. (When shards
/// grew delta chains, the third save promoted a base over the committed
/// delta, and no generation held safe point 2 any more.)
#[test]
fn a_shard_save_torn_before_its_group_commit_restores_the_committed_point() {
    let want = launch(&Deploy::Seq, run_plan(), None, None, |ctx| app(ctx, None))
        .unwrap()
        .results[0]
        .1;
    let plan = || {
        run_plan_with(DistCkptStrategy::LocalSnapshot).plug(Plug::IncrementalCkpt { full_every: 1 })
    };
    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    let dir = scratch("torn_promotion");
    let stopped = launch(&dist2, plan(), Some(&dir), None, |ctx| app(ctx, Some(3))).unwrap();
    assert!(!stopped.completed());
    let store = CheckpointStore::new(&dir).unwrap();
    assert_eq!(store.committed_count().unwrap(), Some(3));
    store.commit_group(2).unwrap();
    for rank in 0..2 {
        let shard = store.get(Some(rank), Some(2)).unwrap();
        assert_eq!(shard.map(|s| s.count), Some(2), "rank {rank}");
    }
    let out = launch(&dist2, plan(), Some(&dir), None, |ctx| app(ctx, None)).unwrap();
    assert!(out.completed() && out.replayed);
    assert_eq!(out.results[0].1, want, "not bitwise");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restore that fails after start-up — here a record whose `V` is one
/// element short, which the root cannot install — ends the launch with
/// that error in every deployment. Under `dist2` the root's peers learn it
/// before the scatter they would otherwise wait in forever.
#[test]
fn a_launch_whose_root_load_fails_returns_the_error() {
    let smp2 = Deploy::Smp {
        threads: 2,
        max_threads: 2,
    };
    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    for (tag, deploy) in [("seq", Deploy::Seq), ("smp2", smp2), ("dist2", dist2)] {
        let dir = scratch(&format!("load_fails_{tag}"));
        let store = CheckpointStore::new(&dir).unwrap();
        let meta = SnapshotMeta {
            mode_tag: tag.into(),
            count: 3,
            rank: None,
            nranks: 1,
        };
        let short = vec![0u8; (N - 1) * 8];
        store
            .put(&Record::Full(&meta, &[("V", FieldSource::Bytes(&short))]))
            .unwrap();
        store.set_marker().unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let run = dir.clone();
        std::thread::spawn(move || {
            let out = launch(&deploy, run_plan(), Some(&run), None, |ctx| app(ctx, None));
            let _ = tx.send(out.map(|out| out.completed()));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Err(PparError::CorruptCheckpoint(why))) => {
                assert!(why.contains("bytes"), "{tag}: {why}")
            }
            Ok(other) => panic!("{tag}: expected the load's error, got {other:?}"),
            Err(_) => panic!("{tag}: the launch hangs"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Elements per dirty chunk: windows of whole chunks dirty exactly their
/// own bytes.
const CHUNK: usize = DIRTY_CHUNK_BYTES / 8;
/// The `dist2` script: per step, the chunk at which a 25-chunk window
/// starts, or `None` for a step that rewrites everything. Windows at 231
/// and 250 cross from rank 0's block into rank 1's (at chunk 256).
const DIST_STEPS: [Option<usize>; 11] = [
    Some(75),
    Some(250),
    Some(300),
    Some(231),
    Some(125),
    Some(450),
    None,
    Some(350),
    Some(250),
    Some(50),
    Some(400),
];
const DIST_WINDOW: usize = 25 * CHUNK;

/// Under `dist2` master-collect every save after the first gathers only
/// what each element wrote since the last, so the root's dirty set is the
/// union of its peers' and its patch and block CRCs follow it. After every
/// save the root's record is the golden encoding of the root's state, and
/// a steady save — not the first two, nor one within a save of a dense
/// step — writes at most twice the bytes its step dirtied plus all that
/// lies outside the field's payload.
#[test]
fn dist2_master_collect_saves_are_golden_and_write_what_changed() {
    let dir = scratch("dist2");
    let plan = Arc::new(run_plan());
    let modules = CheckpointModule::create_group(&dir, &plan, 2).unwrap();
    let hooks = |rank: usize| (Some(modules[rank].clone() as Arc<dyn CkptHook>), None);
    let put = std::sync::Mutex::new(0);
    run_spmd(&SpmdConfig::instant(2), plan.clone(), &hooks, true, |ctx| {
        let v = ctx.alloc_vec("V", N, 0.0f64);
        ctx.call("init", |_| v.copy_in_from_fn(|i| (i % 1000) as f64));
        ctx.region("run", |ctx| {
            ctx.iter_loop("steps", 0..DIST_STEPS.len(), |ctx, step| {
                let cells = match DIST_STEPS[step] {
                    Some(chunk) => chunk * CHUNK..chunk * CHUNK + DIST_WINDOW,
                    None => 0..N,
                };
                ctx.call("touch", |ctx| {
                    ctx.each("cells", cells.clone(), |_, i| {
                        v.set(i, v.get(i) * 0.5 + (step * N + i) as f64);
                    });
                });
                ctx.point("sp");
                if ctx.rank() != 0 {
                    return true;
                }
                let record = std::fs::read(dir.join(RECORD)).unwrap();
                let count = ctx.ckpt_hook().unwrap().count();
                let want = golden(ctx, count, None, &record, &[("V", FieldSource::Cell(&*v))]);
                assert!(record == want, "step {step}: not golden");
                let stats = modules[0].stats();
                let wrote =
                    stats.bytes_put - std::mem::replace(&mut *put.lock().unwrap(), stats.bytes_put);
                let dense = |s: usize| DIST_STEPS[s].is_none();
                if step >= 2 && !dense(step) && !dense(step - 1) {
                    let outside = record.len() - N * 8;
                    let bound = 2 * DIST_WINDOW * 8 + outside;
                    assert!(
                        wrote <= bound as u64,
                        "step {step}: wrote {wrote} > {bound}"
                    );
                }
                true
            });
        });
        ctx.point("collect");
    });
    let stats = modules[0].stats();
    assert_eq!(stats.full_snapshots, DIST_STEPS.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cells `DIST_STEPS[step]` rewrites.
fn dist_window(step: usize) -> std::ops::Range<usize> {
    match DIST_STEPS[step] {
        Some(chunk) => chunk * CHUNK..chunk * CHUNK + DIST_WINDOW,
        None => 0..N,
    }
}

/// The inode `path` names.
fn ino(path: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).unwrap().ino()
}

/// Under `dist2` local snapshots every element saves its own shard — its
/// owned block of `V`, the replicated `E` and the cursor — as one full
/// record at every save, with incremental mode on or off. From the third
/// save on, its sink claims the `_prev` the commit evicts (the record two
/// saves back, the older of the module's last two) and patches it. After
/// every save each shard is the golden encoding of its element's state; a
/// steady save — not the first two, nor one within a save of a dense step
/// — writes at most what its step and the step before dirtied inside the
/// owned block, each at most a window, plus all that lies outside the
/// block's payload; no element takes a delta; and no shard delta file is
/// ever created.
#[test]
fn dist2_local_snapshot_shards_are_golden_and_write_what_changed() {
    for incremental in [false, true] {
        let dir = scratch(&format!("dist2_local_{incremental}"));
        let plan = run_plan_with(DistCkptStrategy::LocalSnapshot)
            .plug(Plug::SafeData { field: "E".into() });
        let plan = match incremental {
            true => plan.plug(Plug::IncrementalCkpt { full_every: 2 }),
            false => plan,
        };
        let plan = Arc::new(plan);
        let modules = CheckpointModule::create_group(&dir, &plan, 2).unwrap();
        let hooks = |rank: usize| (Some(modules[rank].clone() as Arc<dyn CkptHook>), None);
        let put = std::sync::Mutex::new([0u64; 2]);
        run_spmd(&SpmdConfig::instant(2), plan.clone(), &hooks, true, |ctx| {
            let v = ctx.alloc_vec("V", N, 0.0f64);
            let e = ctx.alloc_value("E", 0.0f64);
            ctx.call("init", |_| v.copy_in_from_fn(|i| (i % 1000) as f64));
            let rank = ctx.rank();
            let owned = block_owned(N, 2, rank);
            let record_path = dir.join(format!("ckpt_rank_{rank}.bin"));
            let prev_path = dir.join(format!("ckpt_rank_{rank}_prev.bin"));
            // Bytes of `cells` inside the owned block.
            let owned_bytes = |cells: std::ops::Range<usize>| {
                8 * cells
                    .end
                    .min(owned.end)
                    .saturating_sub(cells.start.max(owned.start))
            };
            ctx.region("run", |ctx| {
                ctx.iter_loop("steps", 0..DIST_STEPS.len(), |ctx, step| {
                    ctx.call("touch", |ctx| {
                        ctx.each("cells", dist_window(step), |_, i| {
                            v.set(i, v.get(i) * 0.5 + (step * N + i) as f64);
                        });
                    });
                    e.set(step as f64 / 3.0);
                    let claimable = (step >= 2).then(|| ino(&prev_path));
                    ctx.point("sp");
                    let case = format!("incremental={incremental} rank {rank} step {step}");
                    let record = std::fs::read(&record_path).unwrap();
                    let count = ctx.ckpt_hook().unwrap().count();
                    let block = &v.encoded().unwrap()[owned.start * 8..owned.end * 8];
                    let fields = [
                        ("V", FieldSource::Bytes(block)),
                        ("E", FieldSource::Cell(&*e)),
                    ];
                    let want = golden(ctx, count, Some(rank as u32), &record, &fields);
                    assert!(record == want, "{case}: not golden");
                    if let Some(claimed) = claimable {
                        assert_eq!(ino(&record_path), claimed, "{case}: `_prev` not claimed");
                    }
                    let names: Vec<String> = std::fs::read_dir(&dir)
                        .unwrap()
                        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                        .collect();
                    assert!(
                        !names.iter().any(|n| n.contains("_delta_")),
                        "{case}: a delta file: {names:?}"
                    );
                    let stats = modules[rank].stats();
                    let wrote = stats.bytes_put
                        - std::mem::replace(&mut put.lock().unwrap()[rank], stats.bytes_put);
                    let dense = |s: usize| DIST_STEPS[s].is_none();
                    if step >= 2 && !dense(step) && !dense(step - 1) {
                        let dirtied =
                            owned_bytes(dist_window(step)) + owned_bytes(dist_window(step - 1));
                        assert!(dirtied <= 2 * DIST_WINDOW * 8, "{case}");
                        let outside = record.len() - block.len();
                        let bound = dirtied + outside;
                        assert!(wrote <= bound as u64, "{case}: wrote {wrote} > {bound}");
                    }
                    true
                });
            });
            ctx.point("collect");
        });
        for (rank, module) in modules.iter().enumerate() {
            let stats = module.stats();
            assert_eq!(
                (stats.full_snapshots, stats.delta_snapshots),
                (DIST_STEPS.len() as u64, 0),
                "incremental={incremental} rank {rank}"
            );
            assert!(
                stats.bytes_put < stats.bytes_written,
                "incremental={incremental} rank {rank}: no save patched"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A save that fails — here the record's name is taken by a directory
/// that is not empty, so the commit's rename cannot replace it — ends the
/// launch with that error in every deployment and under both strategies:
/// under `dist2` local snapshots the failing save is rank 1's shard, and
/// the root learns it before its group commit. Nobody waits for a peer
/// that has left.
#[test]
fn a_launch_whose_save_fails_returns_the_error() {
    let smp2 = Deploy::Smp {
        threads: 2,
        max_threads: 2,
    };
    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    let strategies = [
        DistCkptStrategy::MasterCollect,
        DistCkptStrategy::LocalSnapshot,
    ];
    for strategy in strategies {
        for (tag, deploy) in [
            ("seq", Deploy::Seq),
            ("smp2", smp2.clone()),
            ("dist2", dist2.clone()),
        ] {
            let dir = scratch(&format!("save_fails_{tag}_{strategy:?}"));
            for taken in [RECORD, "ckpt_rank_1.bin"] {
                std::fs::create_dir_all(dir.join(taken).join("occupied")).unwrap();
            }
            let (tx, rx) = std::sync::mpsc::channel();
            let run = dir.clone();
            std::thread::spawn(move || {
                let plan = run_plan_with(strategy);
                let out = launch(&deploy, plan, Some(&run), None, |ctx| app(ctx, None));
                let _ = tx.send(out.map(|out| out.completed()));
            });
            match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(Err(PparError::Io(_))) => {}
                Ok(other) => panic!("{tag} {strategy:?}: expected the save's error, got {other:?}"),
                Err(_) => panic!("{tag} {strategy:?}: the launch hangs"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A `tcp2` job (two ranks, each in a thread of its own, over loopback
/// TCP) whose save fails ends on both ranks within the deadline, with no
/// recovery round: a failed save is no peer fault to recover from, so no
/// rank retries it (a retry would fail the same save again, round after
/// round, and end in a network error). Rank 0 returns the save's own
/// error; its peer, that another element failed.
#[test]
fn a_tcp2_job_whose_save_fails_returns_the_error() {
    let dir = scratch("save_fails_tcp2");
    std::fs::create_dir_all(dir.join(RECORD).join("occupied")).unwrap();
    let root = free_loopback_addr().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    for rank in 0..2 {
        let (tx, dir, root) = (tx.clone(), dir.clone(), root.clone());
        std::thread::spawn(move || {
            let cfg = NetConfig::new(rank, 2, root);
            let out = run_net_rank(&cfg, run_plan(), Some(&dir), |ctx| app(ctx, None));
            let _ = tx.send((rank, out.map(|out| out.recoveries)));
        });
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut ended = [None, None];
    for _ in 0..2 {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        let (rank, outcome) = rx.recv_timeout(left).expect("a rank hangs");
        ended[rank] = Some(outcome);
    }
    match ended[0].take().unwrap() {
        Err(PparError::Io(_)) => {}
        other => panic!("rank 0: expected the save's error, got {other:?}"),
    }
    match ended[1].take().unwrap() {
        Err(PparError::CorruptCheckpoint(msg)) if msg.contains("another element") => {}
        other => panic!("rank 1: expected another element's failure, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A write that no mark declares changes a block whose CRC the module
/// cached: the next save, which would trust that CRC, panics with the
/// save-time oracle's message — on one line, in a team (whose other worker
/// leaves the crossing instead of waiting for the master at its barrier),
/// at the dist2 root (whose peer learns the save failed instead of waiting
/// at its next collective), and under dist2 local snapshots on the element
/// whose owned block was written, in its own shard's save (block 0 of its
/// shard's payload). The message is taken where the save panics, on the
/// line of execution that saved, and it must also be what the launch
/// unwinds with: a rank thread's panic reaches the launcher as its own.
#[cfg(debug_assertions)]
#[test]
fn a_missed_write_panics_the_next_save_in_every_deployment() {
    let smp2 = Deploy::Smp {
        threads: 2,
        max_threads: 2,
    };
    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    let master = DistCkptStrategy::MasterCollect;
    let local = DistCkptStrategy::LocalSnapshot;
    let cases = [
        ("seq", Deploy::Seq, master, 0),
        ("smp2", smp2, master, 0),
        ("dist2", dist2.clone(), master, 0),
        ("dist2_local", dist2, local, 1),
    ];
    for (tag, deploy, strategy, writer) in cases {
        let dir = scratch(&format!("missed_{tag}"));
        let (tx, rx) = std::sync::mpsc::channel();
        let run = dir.clone();
        std::thread::spawn(move || {
            let said = std::sync::Mutex::new(Vec::new());
            let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                launch(&deploy, run_plan_with(strategy), Some(&run), None, |ctx| {
                    let v = ctx.alloc_vec("V", N, 0.0f64);
                    let owned = block_owned(N, ctx.num_ranks(), ctx.rank());
                    ctx.region("run", |ctx| {
                        ctx.iter_loop("steps", 0..3, |ctx, step| {
                            // Element 5 of the writer's owned block, which
                            // lies in block 0 of the record it saves.
                            if step == 1 && ctx.rank() == writer && ctx.is_master() {
                                let i = owned.start + 5;
                                v.cells(i..i + 1)[0].set(-1.0);
                            }
                            let saved =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    ctx.point("sp")
                                }));
                            if let Err(panic) = saved {
                                if let Some(why) = panic_text(&*panic) {
                                    said.lock().unwrap().push(why);
                                }
                                std::panic::resume_unwind(panic);
                            }
                            true
                        });
                    });
                    (AppStatus::Completed, 0)
                })
            }));
            let said = said.into_inner().unwrap();
            let _ = tx.send(launched.err().map(|panic| (panic_text(&*panic), said)));
        });
        let oracle = |why: &str| why.contains("cached block CRC mismatch: field \"V\", block 0");
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Some((why, said))) => {
                assert!(said.iter().any(|why| oracle(why)), "{tag}: {said:?}");
                assert!(why.as_deref().is_some_and(oracle), "{tag}: launch: {why:?}");
            }
            Ok(None) => panic!("{tag}: a save over a missed write did not panic"),
            Err(_) => panic!("{tag}: the launch hangs"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// SOR's kernel writes through row views and marks each row it stores
/// (`mark_row_written`). Under dist2 local snapshots, with each shard of
/// the grid spanning four CRC blocks, every shard save after the first
/// trusts the cached CRC of each block no mark touched — which the
/// save-time oracle re-checks in a debug build — and the run still ends
/// bitwise equal to the sequential one.
#[test]
fn sor_shard_saves_under_dist2_local_snapshots_pass_the_oracle() {
    let params = SorParams::new(512, 4);
    let plan = plan_dist().merge(plan_ckpt_with_strategy(1, DistCkptStrategy::LocalSnapshot));
    let dir = scratch("sor_local");
    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    let out = launch(&dist2, plan, Some(&dir), None, |ctx| {
        let checksum = sor_pluggable(ctx, &params).checksum;
        (AppStatus::Completed, checksum.to_bits())
    })
    .unwrap();
    assert_eq!(out.stats.unwrap().snapshots_taken, 4);
    assert_eq!(out.results[0].1, sor_seq(&params).checksum.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The text of a panic's payload, if it carries one.
#[cfg(debug_assertions)]
fn panic_text(panic: &(dyn std::any::Any + Send)) -> Option<String> {
    let text = panic.downcast_ref::<String>().cloned();
    text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
}
