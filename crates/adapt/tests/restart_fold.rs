//! A disk restart folds its chain once, at store open, and a group-commit
//! point outranks what that fold finds: when shard 0's tip outran the
//! commit (a group save torn by a rank death), start-up keeps the commit
//! point as the target, drops the fold's cursor and record, and the pinned
//! load rolls every shard back to the generation the group committed. That
//! roll-back also looks past a newer generation that fails its CRC.

use std::path::{Path, PathBuf};

use ppar_adapt::{launch, AppStatus, Deploy, LaunchOutcome};
use ppar_ckpt::store::{FieldSource, Record};
use ppar_ckpt::{CheckpointStore, CkptTransport, Snapshot};
use ppar_core::error::{PparError, Result};
use ppar_core::plan::{DistCkptStrategy, Plan};
use ppar_core::runtime::{RegionCursor, PROGRESS_FIELD};
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

fn params() -> SorParams {
    SorParams::new(33, 8)
}

fn deploy() -> Deploy {
    Deploy::Dist(SpmdConfig::instant(2))
}

fn plan() -> Plan {
    plan_dist().merge(plan_ckpt_with_strategy(2, DistCkptStrategy::LocalSnapshot))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppar_restart_fold_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Group saves at safe points 2 and 4, then the run dies: the store in
/// `dir` holds both shards at the commit point 4.
fn crash_after_commit(dir: &Path) -> CheckpointStore {
    let crashing = SorParams {
        fail_after: Some(5),
        ..params()
    };
    launch(&deploy(), plan(), Some(dir), None, |ctx| {
        (AppStatus::Crashed, sor_pluggable(ctx, &crashing).checksum)
    })
    .unwrap();
    let store = CheckpointStore::new(dir).unwrap();
    assert_eq!(store.committed_count().unwrap(), Some(4));
    store
}

/// The torn save: `rank` alone gets a generation-6 shard out (wrong bytes,
/// a cursor standing at 6) before the group can commit it. The store
/// rotates the committed generation aside, as it does for real.
fn tear(store: &CheckpointStore, rank: u32) {
    let mut shard: Snapshot = store
        .get(Some(rank), None)
        .unwrap()
        .expect("the shard at the commit");
    assert_eq!(shard.count, 4);
    shard.count = 6;
    for (name, bytes) in &mut shard.fields {
        if name == PROGRESS_FIELD {
            let mut cursor = RegionCursor::decode(bytes).expect("the shard carries a cursor");
            cursor.point_count = 6;
            *bytes = cursor.encode();
        } else {
            bytes.iter_mut().for_each(|b| *b ^= 0x5a);
        }
    }
    let fields: Vec<(&str, FieldSource<'_>)> = shard
        .fields
        .iter()
        .map(|(name, bytes)| (name.as_str(), FieldSource::Bytes(bytes)))
        .collect();
    store.put(&Record::Full(&shard.meta(), &fields)).unwrap();
    let rank = Some(rank);
    assert_eq!(store.get(rank, None).unwrap().unwrap().count, 6);
    assert_eq!(store.get(rank, Some(4)).unwrap().unwrap().count, 4);
}

/// Flip one bit in the middle of the file `name`, leaving its CRC as it was.
fn flip(dir: &Path, name: &str) {
    let path = dir.join(name);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();
}

/// Rank 1's restore at the commit point, as its restart reads it: the
/// outcome, and the safe point of the record lent, if one was.
fn pinned_read(store: &CheckpointStore) -> (Result<bool>, Option<u64>) {
    let mut lent = None;
    let found = store.with_merged(Some(1), Some(4), &mut |view| {
        lent = Some(view.meta.count);
        Ok(())
    });
    (found, lent)
}

fn restart(dir: &Path) -> Result<LaunchOutcome<u64>> {
    let params = params();
    launch(&deploy(), plan(), Some(dir), None, |ctx| {
        let checksum = sor_pluggable(ctx, &params).checksum;
        (AppStatus::Completed, checksum.to_bits())
    })
}

#[test]
fn a_torn_shard_zero_tip_restarts_from_the_commit_point_bitwise() {
    let dir = scratch("torn");
    let store = crash_after_commit(&dir);
    tear(&store, 0);

    let restart = restart(&dir).unwrap();
    assert!(restart.replayed);
    assert_eq!(restart.results[0].1, sor_seq(&params()).checksum.to_bits());
    // No cursor survived the mismatch: rank 0 re-visited every safe point
    // up to the commit.
    let stats = restart.stats.expect("rank-0 checkpoint stats");
    assert_eq!((stats.replayed_points, stats.resumed_at_point), (4, 0));
    assert!(stats.load_time + stats.replay_time <= restart.elapsed);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Rank 1's current shard stands one generation past the commit point and
/// fails its CRC: the pinned restore looks past it to the retained
/// generation the group committed, and the restart is bitwise the
/// sequential run.
#[test]
fn a_corrupt_uncommitted_shard_rolls_back_to_the_committed_generation() {
    let dir = scratch("corrupt");
    let store = crash_after_commit(&dir);
    tear(&store, 1);
    flip(&dir, "ckpt_rank_1.bin");
    // Checked ahead of the launch: an element whose load fails panics, and
    // its in-process peers would wait for it.
    assert_eq!(pinned_read(&store).1, Some(4), "rank 1's restore");

    let restart = restart(&dir).unwrap();
    assert!(restart.replayed);
    assert_eq!(restart.results[0].1, sor_seq(&params()).checksum.to_bits());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The pinned read rank 1's restart makes, when no generation serves the
/// commit point: with the committed generation corrupt too, it is refused
/// as corrupt, naming what each generation gave, and lends nothing. Only
/// corruption is looked past: a current generation that cannot be read at
/// all is that I/O error, even with the committed one intact behind it.
#[test]
fn a_pinned_shard_read_refuses_when_no_generation_serves_the_pin() {
    let dir = scratch("unserved");
    let store = crash_after_commit(&dir);
    tear(&store, 1);
    flip(&dir, "ckpt_rank_1.bin");
    flip(&dir, "ckpt_rank_1_prev.bin");
    match pinned_read(&store) {
        (Err(PparError::CorruptCheckpoint(why)), None) => {
            assert!(why.contains("safe point 4"), "{why}");
            assert_eq!(why.matches("CRC mismatch").count(), 2, "{why}");
        }
        other => panic!("expected a corrupt checkpoint and no lend, got {other:?}"),
    }

    #[cfg(unix)]
    {
        flip(&dir, "ckpt_rank_1_prev.bin");
        let current = dir.join("ckpt_rank_1.bin");
        std::fs::remove_file(&current).unwrap();
        std::os::unix::fs::symlink(&current, &current).unwrap();
        assert!(matches!(pinned_read(&store), (Err(PparError::Io(_)), None)));
    }

    let _ = std::fs::remove_dir_all(&dir);
}
