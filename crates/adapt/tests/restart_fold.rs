//! A disk restart folds its chain once, at store open, and a group-commit
//! point outranks what that fold finds: when shard 0's tip outran the
//! commit (a group save torn by a rank death), start-up keeps the commit
//! point as the target, drops the fold's cursor and record, and the pinned
//! load rolls every shard back to the generation the group committed.

use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_ckpt::store::{FieldSource, Record};
use ppar_ckpt::{CheckpointStore, CkptTransport};
use ppar_core::plan::DistCkptStrategy;
use ppar_core::runtime::{RegionCursor, PROGRESS_FIELD};
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt_with_strategy, plan_dist, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

#[test]
fn a_torn_shard_zero_tip_restarts_from_the_commit_point_bitwise() {
    let dir = std::env::temp_dir().join(format!("ppar_restart_fold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let params = SorParams::new(33, 8);
    let expected = sor_seq(&params).checksum.to_bits();
    let deploy = Deploy::Dist(SpmdConfig::instant(2));
    let plan = plan_dist().merge(plan_ckpt_with_strategy(2, DistCkptStrategy::LocalSnapshot));

    // Group saves at safe points 2 and 4, then the run dies.
    let crashing = SorParams {
        fail_after: Some(5),
        ..params.clone()
    };
    launch(&deploy, plan.clone(), Some(&dir), None, |ctx| {
        (AppStatus::Crashed, sor_pluggable(ctx, &crashing).checksum)
    })
    .unwrap();
    let store = CheckpointStore::new(&dir).unwrap();
    assert_eq!(store.committed_count().unwrap(), Some(4));

    // The torn save: rank 0 alone got its generation-6 shard out (wrong
    // bytes, a cursor standing at 6) before the group could commit it. The
    // store rotates the committed generation aside, as it did for real.
    let mut shard = store.read_shard(0).unwrap().expect("shard 0 at the commit");
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
    assert_eq!(store.get(Some(0), None).unwrap().unwrap().count, 6);
    assert_eq!(store.get(Some(0), Some(4)).unwrap().unwrap().count, 4);

    let restart = launch(&deploy, plan, Some(&dir), None, |ctx| {
        (AppStatus::Completed, sor_pluggable(ctx, &params).checksum)
    })
    .unwrap();
    assert!(restart.replayed);
    assert_eq!(restart.results[0].1.to_bits(), expected);
    // No cursor survived the mismatch: rank 0 re-visited every safe point
    // up to the commit.
    let stats = restart.stats.expect("rank-0 checkpoint stats");
    assert_eq!((stats.replayed_points, stats.resumed_at_point), (4, 0));
    assert!(stats.load_time + stats.replay_time <= restart.elapsed);

    let _ = std::fs::remove_dir_all(&dir);
}
