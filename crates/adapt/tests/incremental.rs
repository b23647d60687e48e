//! Incremental mode writes no chain: under `Plug::IncrementalCkpt` every
//! save is one full record, patched where its file holds one of the
//! module's records, so a restart reads one record (`patch.rs` bounds
//! what each such save writes). A directory an older build's incremental
//! run left — a base and a three-delta master chain, planted through
//! `put_master_delta` — restarts bitwise in `seq`, `smp2` and `dist2`,
//! and once the restarted run's first save has committed, no delta file
//! of any kind remains.

use std::path::{Path, PathBuf};

use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_ckpt::store::DeltaSource;
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CheckpointStore, DeltaMeta};
use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;
use ppar_core::shared::{SharedVec, DIRTY_CHUNK_BYTES};
use ppar_dsm::SpmdConfig;

const STEPS: usize = 9;
/// 256 KiB of `f64`.
const N: usize = 1 << 15;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_incremental_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Elements per dirty chunk.
const CHUNK: usize = DIRTY_CHUNK_BYTES / 8;

/// The window of `V` that step `step` rewrites: 5 % of it in whole dirty
/// chunks.
fn window(step: usize) -> std::ops::Range<usize> {
    let len = N / 20 / CHUNK * CHUNK;
    let start = step * 7 * len / 3 % (N - len) / CHUNK * CHUNK;
    start..start + len
}

/// What step `step` makes of element `i` holding `v`.
fn stepped(v: f64, step: usize, i: usize) -> f64 {
    v * 0.5 + (step * N + i) as f64
}

/// Every step rewrites its window of `V` and saves; a run given
/// `stop_after` ends right after that step's save.
fn app(ctx: &Ctx, stop_after: Option<usize>) -> (AppStatus, u64) {
    let v = ctx.alloc_vec("V", N, 0.0f64);
    ctx.call("init", |_| v.copy_in_from_fn(|i| (i % 1000) as f64));
    ctx.region("run", |ctx| {
        ctx.iter_loop("steps", 0..STEPS, |ctx, step| {
            ctx.call("touch", |ctx| {
                ctx.each("cells", window(step), |_, i| {
                    v.set(i, stepped(v.get(i), step, i));
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

/// `V` after the first `steps` steps of [`app`].
fn state(steps: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..N).map(|i| (i % 1000) as f64).collect();
    for step in 0..steps {
        for i in window(step) {
            v[i] = stepped(v[i], step, i);
        }
    }
    v
}

/// Master-collect saves at every step, in incremental mode.
fn plan() -> Plan {
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
        .plug(Plug::DistCkpt {
            strategy: DistCkptStrategy::MasterCollect,
        })
        .plug(Plug::IncrementalCkpt { full_every: 8 })
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

/// Names in `dir` of the master delta chain: deltas, their temp files
/// and spares.
fn deltas(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap();
    let names = names.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
    names
        .filter(|n| n.starts_with("ckpt_master_delta_"))
        .collect()
}

/// The chain's base is the save at this safe point, and its deltas follow
/// it, one per safe point.
const BASE: usize = 3;
const DELTAS: usize = 3;

/// What an older build's incremental `smp2` run left when it stopped
/// right after its save at safe point `BASE + DELTAS`: a base record at
/// `BASE` — this build's save, byte for byte the older one's — and the
/// chain over it, one sparse delta per later save holding the window that
/// save rewrote. The deltas carry no cursor, so a restart replays from
/// the start of the run.
fn plant_chain(dir: &Path) {
    let stopped = launch(&smp2(), plan(), Some(dir), None, |ctx| app(ctx, Some(BASE))).unwrap();
    assert!(!stopped.completed());
    let store = CheckpointStore::new(dir).unwrap();
    let base = store.get(None, None).unwrap().expect("the base");
    assert_eq!(base.count, BASE as u64);
    for seq in 1..=DELTAS {
        let count = BASE + seq;
        let v = SharedVec::new(N, 0.0f64);
        let at = state(count);
        v.copy_in_from_fn(|i| at[i]);
        let rewrote = window(count - 1);
        let meta = DeltaMeta {
            mode_tag: base.mode_tag.clone(),
            count: count as u64,
            base_count: BASE as u64,
            seq: seq as u32,
            rank: None,
            nranks: base.nranks,
        };
        let bytes = rewrote.start * 8..rewrote.end * 8;
        let field = DeltaSource::DirtyCell {
            cell: &v,
            ranges: std::slice::from_ref(&bytes),
        };
        store
            .put_master_delta(&meta, &[("V", field)], &mut Vec::new())
            .unwrap();
    }
    let tip = store.get(None, None).unwrap().expect("the folded chain");
    assert_eq!(tip.count, (BASE + DELTAS) as u64);
    let want: Vec<u8> = state(BASE + DELTAS)
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    assert!(
        tip.field("V") == Some(&want[..]),
        "the chain folds to the state"
    );
    assert_eq!(deltas(dir).len(), DELTAS);
    assert!(store.marker_exists(), "the stopped run left its marker");
}

/// Copy the files of `from` into `to`.
fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A base and a three-delta master chain, as an older build's incremental
/// run left them, restart in `seq`, `smp2` and `dist2`: the restart
/// replays to the chain's tip, the restarted run's first save retires the
/// chain as it commits — no `ckpt_master_delta_*` name of any suffix
/// remains once it has — and the run ends bitwise equal to the
/// uninterrupted one.
#[test]
fn an_older_builds_chain_restarts_bitwise_and_the_first_save_retires_it() {
    let want = launch(&Deploy::Seq, plan(), None, None, |ctx| app(ctx, None))
        .unwrap()
        .results[0]
        .1;
    let planted = scratch("planted");
    plant_chain(&planted);
    for (tag, deploy) in [("seq", Deploy::Seq), ("smp2", smp2()), ("dist2", dist2())] {
        let dir = scratch(&format!("compat_{tag}"));
        copy_dir(&planted, &dir);
        let first = BASE + DELTAS + 1;
        let out = launch(&deploy, plan(), Some(&dir), None, |ctx| {
            app(ctx, Some(first))
        })
        .unwrap();
        assert!(out.replayed && !out.completed(), "{tag}");
        assert_eq!(out.stats.expect("rank-0 stats").snapshots_taken, 1, "{tag}");
        let left = deltas(&dir);
        assert!(left.is_empty(), "{tag}: the first save left {left:?}");
        let out = launch(&deploy, plan(), Some(&dir), None, |ctx| app(ctx, None)).unwrap();
        assert!(out.completed() && out.replayed, "{tag}");
        assert_eq!(out.results[0].1, want, "{tag}: not bitwise");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&planted);
}
