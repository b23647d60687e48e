//! A record's file outlives its generation: every flat file a commit
//! supersedes keeps a spare name, the checkpoint module keeps those
//! spares, and its next save of each key claims the one that key left and
//! rewrites it in place — a shard's save claims the spent `_prev` its
//! commit evicts. Record names and crash semantics must not notice.
//! Covered here:
//!
//! * a run stopped right after a save, with spares on disk, restarts
//!   bitwise from that save's count — under seq, smp2 and dist2
//!   (master-collect and local-snapshot) — and the restarted run's saves
//!   write into the files the stopped run left;
//! * a module run leaves the record names that the same records relayed
//!   through direct commits leave; besides, it leaves only spares, at most
//!   one per record name, and the direct commits leave none;
//! * a steady save publishes the very file it claimed (same inode);
//! * a run's first save seeds the spare its second claims: a twin of the
//!   record, byte-identical to it, written beside it into a file of its
//!   own, so from the second save on a flat record alternates between
//!   exactly two files; a run stopped right after its first save restarts
//!   bitwise over the twin;
//! * a one-step run, a payload under 4 MiB and a one-core run write no
//!   twin, and a directory planted at the spare name leaves every save Ok
//!   and whole and the run bitwise;
//! * [`ppar_ckpt::CkptStats`] counts every save exactly: one full record
//!   per save;
//! * a live reshape saves over the spares its predecessor left.
//!
//! A twin is written by the block engine's helper thread, which a 4 MiB
//! payload starts only with a second core: on one core the tests assert
//! that no save writes one.
//!
//! Every test works in a directory of its own, so the tests of this
//! binary may run in parallel. They tell files apart by inode, so they
//! run on Unix only.
#![cfg(unix)]

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};

use ppar_adapt::{launch, launch_live, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_ckpt::transport::{CkptTransport, RecordKey};
use ppar_ckpt::CheckpointStore;
use ppar_core::ctx::Ctx;
use ppar_core::mode::ExecMode;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;
use ppar_core::sync::Mutex;
use ppar_dsm::SpmdConfig;

/// 4 MiB of `f64`: a record large enough that a fresh file is not free.
const N: usize = 1 << 19;
const STEPS: usize = 7;
const SPARE: &str = ".spare";
const RECORD: &str = "ckpt_master.bin";

/// Does a run's first save seed its spare here? Its twin is written by the
/// helper a 4 MiB payload starts only on a second core.
fn twins() -> bool {
    ppar_core::sync::cores() > 1
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_recycle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `(name, inode)` of every record file (`*.bin`) and spare in `dir`.
fn files(dir: &Path) -> BTreeMap<String, u64> {
    use std::os::unix::fs::MetadataExt;
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().into_string().unwrap(),
                e.metadata().unwrap().ino(),
            )
        })
        .filter(|(name, _)| name.ends_with(".bin") || name.ends_with(SPARE))
        .collect()
}

/// The record names and the spares among `names`.
fn split(names: &BTreeMap<String, u64>) -> (Vec<&str>, Vec<&str>) {
    names
        .keys()
        .map(String::as_str)
        .partition(|n| !n.ends_with(SPARE))
}

/// Spares are bounded: each is the spare of a record name (never of a
/// delta: no save writes one).
fn assert_spares_bounded(names: &BTreeMap<String, u64>, case: &str) {
    for spare in split(names).1 {
        let record = spare.strip_suffix(SPARE).unwrap();
        let stem = record
            .strip_suffix(".bin")
            .expect("a spare of a record name");
        let base = stem == "ckpt_master" || stem.starts_with("ckpt_rank_");
        assert!(base && !stem.contains("_delta_"), "{case}: {spare}");
    }
}

/// What a save of a probed run saw in the module's directory and in the
/// directory the same records were relayed into.
#[derive(Debug)]
struct Saved {
    /// The record the save published.
    name: String,
    /// The inode of that record's spare just before the save, if any.
    spare_before: Option<u64>,
    /// The inode of the published record.
    published: u64,
    /// Just after the save, the record's spare holds its very bytes.
    spare_is_record: bool,
    module: BTreeMap<String, u64>,
    direct: BTreeMap<String, u64>,
}

/// Watches a sequential run's saves from the app's own thread: around
/// each safe point it reads the directory, and it relays every published
/// record through a direct commit into a second store, which drops what
/// the commit superseded as `put` and the checkpoint service do.
struct Probe {
    dir: PathBuf,
    direct: CheckpointStore,
    saves: Mutex<Vec<Saved>>,
}

impl Probe {
    fn new(dir: &Path, direct: &Path) -> Probe {
        Probe {
            dir: dir.to_path_buf(),
            direct: CheckpointStore::new_flat(direct).unwrap(),
            saves: Mutex::new(Vec::new()),
        }
    }

    /// Every save publishes the master record.
    fn around(&self, point: impl FnOnce()) {
        let key = RecordKey::full(None);
        let name = RECORD.to_string();
        let spare_before = files(&self.dir).get(&format!("{name}{SPARE}")).copied();
        point();
        let module = files(&self.dir);
        let bytes = std::fs::read(self.dir.join(&name)).unwrap();
        let spare = std::fs::read(self.dir.join(format!("{name}{SPARE}"))).ok();
        let spare_is_record = spare.as_deref() == Some(&bytes[..]);
        let mut sink = self.direct.begin(key, bytes.len() as u64).unwrap();
        sink.write_all(&bytes).unwrap();
        drop(sink.commit().unwrap());
        self.saves.lock().push(Saved {
            published: module[&name],
            name,
            spare_before,
            spare_is_record,
            module,
            direct: files(self.direct.dir()),
        });
    }
}

/// What a run of [`app`] returns: the bit pattern of the gathered field,
/// folded (0 for a stopped run).
type Folded = u64;

/// Every step rewrites its window of `V` and crosses safe point `sp`;
/// `stop_after` steps in, the run stops right after that step's save.
fn app(ctx: &Ctx, stop_after: Option<usize>, probe: Option<&Probe>) -> (AppStatus, Folded) {
    shaped(ctx, N, STEPS, stop_after, probe)
}

/// [`app`] over `n` elements of `V` (a window is 1/16 of them) and `steps`
/// steps.
fn shaped(
    ctx: &Ctx,
    n: usize,
    steps: usize,
    stop_after: Option<usize>,
    probe: Option<&Probe>,
) -> (AppStatus, Folded) {
    let v = ctx.alloc_vec("V", n, 0.0f64);
    let window = n / 16;
    ctx.region("run", |ctx| {
        ctx.iter_loop("steps", 0..steps, |ctx, step| {
            let start = step * 5 * window / 2 % (n - window);
            ctx.call("touch", |ctx| {
                ctx.each("cells", start..start + window, |_, i| {
                    v.set(i, v.get(i) * 0.5 + (step * n + i) as f64);
                });
            });
            match probe {
                Some(probe) => probe.around(|| ctx.point("sp")),
                None => ctx.point("sp"),
            }
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

fn plan(strategy: DistCkptStrategy) -> Plan {
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
        .plug(Plug::DistCkpt { strategy })
}

fn smp2() -> Deploy {
    Deploy::Smp {
        threads: 2,
        max_threads: 2,
    }
}

fn dist2() -> Deploy {
    Deploy::Dist(SpmdConfig::instant(2))
}

/// What the run computes with no checkpoint at all.
fn reference() -> Folded {
    let plan = plan(DistCkptStrategy::MasterCollect);
    let out = launch(&Deploy::Seq, plan, None, None, |ctx| app(ctx, None, None)).unwrap();
    out.results[0].1
}

/// Stop right after the save at step `stop` with spares on disk, restart
/// in the same deployment and finish: the restart replays to exactly that
/// save's count, ends bitwise equal to the uninterrupted run, and every
/// record it leaves lives in a file the stopped run left — its saves
/// claimed the spares instead of creating files.
#[test]
fn a_run_stopped_right_after_a_save_restarts_bitwise_over_its_spares() {
    let want = reference();
    let local = DistCkptStrategy::LocalSnapshot;
    let master = DistCkptStrategy::MasterCollect;
    let cases = [
        ("seq", Deploy::Seq, master),
        ("smp2", smp2(), master),
        ("dist2_master", dist2(), master),
        ("dist2_local", dist2(), local),
    ];
    for (tag, deploy, strategy) in cases {
        // Stops at two steps: the spares a stop leaves differ.
        for stop in [4, 5] {
            let case = format!("{tag} stop={stop}");
            let dir = scratch(&format!("stop_{tag}_{stop}"));
            let stopped = launch(&deploy, plan(strategy), Some(&dir), None, |ctx| {
                app(ctx, Some(stop), None)
            })
            .unwrap();
            assert!(!stopped.completed(), "{case}");
            let stats = stopped.stats.expect("rank-0 stats");
            assert_eq!(stats.snapshots_taken, stop as u64, "{case}");
            let left = files(&dir);
            // What the restart's saves claim: spares and, under local
            // snapshots, each shard's `_prev`, spent once the group has
            // committed the shard's record.
            let prev = left.keys().filter(|n| n.ends_with("_prev.bin"));
            let claimable = split(&left).1.len() + prev.count();
            assert!(claimable > 0, "{case}: nothing left to claim");
            assert_spares_bounded(&left, &case);

            let store = CheckpointStore::new(&dir).unwrap();
            let chain = (strategy == local).then_some(0);
            let tip = store.get(chain, None).unwrap().expect("a record").count;
            assert_eq!(tip, stop as u64, "{case}: the stopped save is the tip");

            let restarted = launch(&deploy, plan(strategy), Some(&dir), None, |ctx| {
                app(ctx, None, None)
            })
            .unwrap();
            assert!(restarted.completed() && restarted.replayed, "{case}");
            assert_eq!(restarted.results[0].1, want, "{case}: not bitwise");
            let after = files(&dir);
            assert_spares_bounded(&after, &case);
            let before: BTreeSet<_> = left.values().collect();
            for (name, ino) in &after {
                assert!(before.contains(ino), "{case}: {name} is a fresh file");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A module run's saves and the same records relayed through direct
/// commits leave the same record names after every save. The module run
/// leaves spares besides, bounded; the direct commits leave none.
#[test]
fn a_module_run_leaves_the_record_names_of_direct_commits_and_bounded_spares() {
    let dir = scratch("names");
    let direct = scratch("names_direct");
    let probe = Probe::new(&dir, &direct);
    let plan = plan(DistCkptStrategy::MasterCollect);
    let out = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
        app(ctx, None, Some(&probe))
    })
    .unwrap();
    assert!(out.completed());
    let saves = std::mem::take(&mut *probe.saves.lock());
    assert_eq!(saves.len(), STEPS);
    for (i, save) in saves.iter().enumerate() {
        let case = format!("save {}", i + 1);
        let (records, _) = split(&save.module);
        let (direct_records, direct_spares) = split(&save.direct);
        assert_eq!(records, direct_records, "{case}");
        assert!(direct_spares.is_empty(), "{case}: {direct_spares:?}");
        assert_spares_bounded(&save.module, &case);
    }
    let last = saves.last().unwrap();
    assert!(!split(&last.module).1.is_empty(), "no spare was kept");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&direct);
}

/// Once its key has a spare, a save creates no file: the record it
/// publishes is the spare it claimed, the same inode. The first save
/// leaves a spare byte-identical to its record, the twin it wrote beside
/// it, which the next full save claims; so from the second save on the
/// flat record alternates between exactly two files, and the second
/// save's is the twin. On one core no twin is written, and the second
/// save finds no spare.
#[test]
fn a_steady_save_publishes_the_spare_it_claimed() {
    // Saves 2.. find the spare save 1 seeded (on one core, saves 3.. find
    // the one save 2 left).
    let claims = STEPS - 2 + twins() as usize;
    let dir = scratch("inode");
    let direct = scratch("inode_direct");
    let probe = Probe::new(&dir, &direct);
    let plan = plan(DistCkptStrategy::MasterCollect);
    let out = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
        app(ctx, None, Some(&probe))
    })
    .unwrap();
    assert!(out.completed());
    let saves = std::mem::take(&mut *probe.saves.lock());
    let mut claimed = 0;
    for (i, save) in saves.iter().enumerate() {
        if let Some(spare) = save.spare_before {
            assert_eq!(
                save.published,
                spare,
                "save {}: {} is a fresh file",
                i + 1,
                save.name
            );
            claimed += 1;
        }
    }
    assert_eq!(claimed, claims);
    assert_eq!(saves[0].spare_is_record, twins());
    let second = saves[1].spare_before;
    assert_eq!(second.is_some(), twins(), "the second save's spare");
    let published: Vec<u64> = saves[1..].iter().map(|s| s.published).collect();
    for pair in published.windows(2) {
        assert_ne!(pair[0], pair[1], "{published:?}");
    }
    let files: BTreeSet<_> = published.iter().collect();
    assert_eq!(files.len(), 2, "{published:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&direct);
}

/// A run stopped right after its first save leaves its record and, under
/// the spare name, the twin that save wrote — byte-identical to the
/// record. The restart replays to that save, ends bitwise equal to the
/// uninterrupted run, and its first save claims the twin: every file it
/// leaves is one the stopped run left. On one core no twin is left.
#[test]
fn a_run_stopped_right_after_its_first_save_restarts_bitwise_over_the_twin() {
    let want = reference();
    let master = DistCkptStrategy::MasterCollect;
    for (tag, deploy) in [("seq", Deploy::Seq), ("smp2", smp2()), ("dist2", dist2())] {
        let dir = scratch(&format!("first_{tag}"));
        let stopped = launch(&deploy, plan(master), Some(&dir), None, |ctx| {
            app(ctx, Some(1), None)
        })
        .unwrap();
        assert!(!stopped.completed(), "{tag}");
        let record = std::fs::read(dir.join(RECORD)).unwrap();
        let spare = std::fs::read(dir.join(format!("{RECORD}{SPARE}"))).ok();
        match twins() {
            true => assert!(spare == Some(record), "{tag}: the spare is no twin"),
            false => assert!(spare.is_none(), "{tag}: one core wrote a twin"),
        }
        let left = files(&dir);
        let restarted = launch(&deploy, plan(master), Some(&dir), None, |ctx| {
            app(ctx, None, None)
        })
        .unwrap();
        assert!(restarted.completed() && restarted.replayed, "{tag}");
        assert_eq!(restarted.results[0].1, want, "{tag}: not bitwise");
        if twins() {
            let before: BTreeSet<_> = left.values().collect();
            for (name, ino) in &files(&dir) {
                assert!(before.contains(ino), "{tag}: {name} is a fresh file");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A first save writes a twin only when another save is coming, the
/// record's payload starts a helper of the block engine (4 MiB or more,
/// on a second core) and its file is fresh. So a one-step run, a 2 MiB
/// payload and a one-core run leave no spare behind their first save, and
/// that save puts the record's bytes only; a 4 MiB payload on two cores
/// puts the record's bytes twice, its twin taking the spare name.
#[test]
fn a_one_step_run_a_small_payload_and_one_core_write_no_twin() {
    let master = DistCkptStrategy::MasterCollect;
    let cases = [
        ("one_step", N, 1, None, false),
        ("small", N / 2, STEPS, Some(1), false),
        ("large", N, STEPS, Some(1), twins()),
    ];
    for (tag, n, steps, stop, twin) in cases {
        let dir = scratch(&format!("no_twin_{tag}"));
        let out = launch(&smp2(), plan(master), Some(&dir), None, |ctx| {
            shaped(ctx, n, steps, stop, None)
        })
        .unwrap();
        let stats = out.stats.expect("rank-0 stats");
        assert_eq!(stats.snapshots_taken, 1, "{tag}");
        let len = std::fs::metadata(dir.join(RECORD)).unwrap().len();
        assert_eq!(stats.bytes_written, len, "{tag}");
        assert_eq!(stats.bytes_put, len * (1 + twin as u64), "{tag}");
        let spare = dir.join(format!("{RECORD}{SPARE}"));
        assert_eq!(spare.exists(), twin, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A directory planted at the record's spare name can be neither claimed
/// nor replaced: every save is Ok and writes a fresh file whole — the
/// first one's twin is written, then removed when it cannot take the
/// name — the directory stays, no temp file is left, and the run restarts
/// bitwise.
#[test]
fn a_directory_at_the_spare_name_leaves_every_save_whole() {
    let master = DistCkptStrategy::MasterCollect;
    let dir = scratch("planted");
    let planted = dir.join(format!("{RECORD}{SPARE}")).join("occupied");
    std::fs::create_dir_all(&planted).unwrap();
    let stopped = launch(&smp2(), plan(master), Some(&dir), None, |ctx| {
        app(ctx, Some(2), None)
    })
    .unwrap();
    let stats = stopped.stats.expect("rank-0 stats");
    assert_eq!(stats.snapshots_taken, 2);
    // Save 1 puts its record and, on a second core, its twin; save 2 its
    // whole record.
    let len = std::fs::metadata(dir.join(RECORD)).unwrap().len();
    assert_eq!(stats.bytes_put, len * (2 + twins() as u64));
    assert!(planted.is_dir());
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(names.iter().all(|n| !n.contains(".tmp")), "{names:?}");
    let restarted = launch(&smp2(), plan(master), Some(&dir), None, |ctx| {
        app(ctx, None, None)
    })
    .unwrap();
    assert!(restarted.completed() && restarted.replayed);
    assert_eq!(restarted.results[0].1, reference(), "not bitwise");
    assert!(planted.is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stats a launch reports count every save exactly: one full record
/// per safe point, and the bytes of exactly the records written.
#[test]
fn checkpoint_stats_count_every_save_exactly() {
    let size = |dir: &Path, name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
    let run = |dir: &Path, stop| {
        let plan = plan(DistCkptStrategy::MasterCollect);
        let out = launch(&smp2(), plan, Some(dir), None, |ctx| app(ctx, stop, None)).unwrap();
        out.stats.expect("rank-0 stats")
    };
    let dir = scratch("stats");
    let stats = run(&dir, None);
    assert_eq!(stats.snapshots_taken, STEPS as u64);
    let base = size(&dir, RECORD);
    assert_eq!(stats.last_save_bytes, base);
    assert_eq!(stats.bytes_written, STEPS as u64 * base);
    // Stopped at save 5, the fifth record is the tip.
    let stopped = scratch("stats_stopped");
    let at_five = run(&stopped, Some(5));
    assert_eq!(at_five.last_save_bytes, size(&stopped, RECORD));
    assert_eq!(at_five.bytes_written, 5 * base);
    let _ = std::fs::remove_dir_all(&stopped);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live reshape's successor saves into the directory its predecessor
/// left spares in, and ends bitwise equal to the uninterrupted run with
/// its spares still bounded.
#[test]
fn a_live_reshape_saves_over_the_spares_its_predecessor_left() {
    let want = reference();
    let dir = scratch("live");
    let controller =
        AdaptationController::with_timeline(ResourceTimeline::new().at(3, ExecMode::dist(2)));
    let plan = plan(DistCkptStrategy::MasterCollect);
    let out = launch_live(&smp2(), plan, Some(&dir), controller, |ctx| {
        app(ctx, None, None)
    })
    .unwrap();
    assert!(out.completed());
    assert_eq!(out.launches, 2, "one escalated relaunch");
    assert_eq!(out.results[0].1, want);
    let left = files(&dir);
    assert!(!split(&left).1.is_empty());
    assert_spares_bounded(&left, "live");
    let _ = std::fs::remove_dir_all(&dir);
}
