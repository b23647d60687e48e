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
//! * a byte flipped in a clean chunk of a verified spare survives the
//!   patch — the next record differs from golden in exactly that byte —
//!   and fails the record's CRC at restore, and a launch over it fails;
//! * an `smp2` run stopped after several patched saves restarts bitwise in
//!   `seq`, `smp2` and `dist2` master-collect;
//! * a launch whose restore fails after start-up returns the error instead
//!   of hanging — a patched record's failure mode is a CRC error at load —
//!   and so does a launch whose save fails, in every deployment and under
//!   both strategies;
//! * in a debug build, a write no mark declares panics the next save with
//!   the save-time oracle's message, in `seq`, `smp2` and `dist2`, and
//!   leaves no line of execution waiting.
//!
//! Every test works in a directory of its own. The tests rewrite spares by
//! name and rely on the link count a claim checks, so they run on Unix
//! only.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_ckpt::store::{FieldSource, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CheckpointModule, CheckpointStore, Record, SnapshotView};
use ppar_core::ctx::{CkptHook, Ctx, Engine, RunShared, SeqEngine};
use ppar_core::error::PparError;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, UpdateAction};
use ppar_core::runtime::{TeamEngine, PROGRESS_FIELD};
use ppar_core::schedule::Schedule;
use ppar_core::shared::{SharedVec, DIRTY_CHUNK_BYTES};
use ppar_core::state::{Registry, StateCell, ValueCell};
use ppar_dsm::{run_spmd, SpmdConfig};

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
        golden(ctx, count, record, &[("G", &*self.g), ("V", &*self.v)])
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
/// safe point `count` with the cursor `record` carries (always written
/// whole), through a one-pass encode into memory.
fn golden(ctx: &Ctx, count: u64, record: &[u8], fields: &[(&str, &dyn StateCell)]) -> Vec<u8> {
    let view = SnapshotView::decode_trusted(record).unwrap();
    let progress = view.field(PROGRESS_FIELD).unwrap().to_vec();
    let meta = SnapshotMeta {
        mode_tag: ctx.mode().tag(),
        count,
        rank: None,
        nranks: ctx.num_ranks() as u32,
    };
    let mut sources: Vec<_> = fields
        .iter()
        .map(|(name, cell)| (*name, FieldSource::Cell(*cell)))
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

/// Every step rewrites a 5% window of `V` and saves; a stopped run ends
/// right after the save at step `STOP`.
fn app(ctx: &Ctx, stop: bool) -> (AppStatus, u64) {
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
            !(stop && step + 1 == STOP)
        });
    });
    if stop {
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
    let want = launch(&Deploy::Seq, run_plan(), None, None, |ctx| app(ctx, false))
        .unwrap()
        .results[0]
        .1;
    let smp2 = Deploy::Smp {
        threads: 2,
        max_threads: 2,
    };
    let stopped = scratch("stopped");
    let out = launch(&smp2, run_plan(), Some(&stopped), None, |ctx| {
        app(ctx, true)
    })
    .unwrap();
    assert!(!out.completed());
    assert_eq!(out.stats.unwrap().snapshots_taken, STOP as u64);
    assert!(stopped.join(SPARE).exists());

    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    for (tag, deploy) in [("seq", Deploy::Seq), ("smp2", smp2), ("dist2", dist2)] {
        let dir = scratch(&format!("restart_{tag}"));
        copy_dir(&stopped, &dir);
        let out = launch(&deploy, run_plan(), Some(&dir), None, |ctx| app(ctx, false)).unwrap();
        assert!(out.completed() && out.replayed, "{tag}");
        assert_eq!(out.results[0].1, want, "{tag}: not bitwise");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&stopped);
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
            let out = launch(&deploy, run_plan(), Some(&run), None, |ctx| app(ctx, false));
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
                let want = golden(ctx, count, &record, &[("V", &*v)]);
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
                let out = launch(&deploy, plan, Some(&run), None, |ctx| app(ctx, false));
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

/// A write that no mark declares changes a block whose CRC the module
/// cached: the next save, which would trust that CRC, panics with the
/// save-time oracle's message — on one line, in a team (whose other worker
/// leaves the crossing instead of waiting for the master at its barrier)
/// and at the dist2 root (whose peer learns the save failed instead of
/// waiting at its next collective). A scoped rank thread's panic reaches
/// the launcher as the scope's own, so dist2 is held only to panicking.
#[cfg(debug_assertions)]
#[test]
fn a_missed_write_panics_the_next_save_in_every_deployment() {
    let smp2 = Deploy::Smp {
        threads: 2,
        max_threads: 2,
    };
    let dist2 = Deploy::Dist(SpmdConfig::instant(2));
    for (tag, deploy) in [("seq", Deploy::Seq), ("smp2", smp2), ("dist2", dist2)] {
        let dir = scratch(&format!("missed_{tag}"));
        let (tx, rx) = std::sync::mpsc::channel();
        let run = dir.clone();
        std::thread::spawn(move || {
            let launched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                launch(&deploy, run_plan(), Some(&run), None, |ctx| {
                    let v = ctx.alloc_vec("V", N, 0.0f64);
                    ctx.region("run", |ctx| {
                        ctx.iter_loop("steps", 0..3, |ctx, step| {
                            // Element 5 is the root's, in block 0.
                            if step == 1 && ctx.rank() == 0 && ctx.is_master() {
                                v.cells(5..6)[0].set(-1.0);
                            }
                            ctx.point("sp");
                            true
                        });
                    });
                    (AppStatus::Completed, 0)
                })
            }));
            let panic = launched.err().map(|p| {
                let text = p.downcast_ref::<String>().cloned();
                text.or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
            let _ = tx.send(panic);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Some(why)) if tag == "dist2" => drop(why),
            Ok(Some(why)) => assert!(
                why.contains("cached block CRC mismatch: field \"V\", block 0"),
                "{tag}: {why}"
            ),
            Ok(None) => panic!("{tag}: a save over a missed write did not panic"),
            Err(_) => panic!("{tag}: the launch hangs"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
