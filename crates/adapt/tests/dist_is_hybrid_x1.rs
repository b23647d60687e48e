//! `Deploy::Dist(cfg)` is the rank engine at team width one.
//!
//! The equivalence pin is the evidence the separate distributed engine
//! could be deleted: SOR and MD under `Deploy::Dist(instant(P))` against
//! `Deploy::Hybrid { cfg: instant(P), threads: 1, max_threads: 1 }`, both
//! distributed checkpoint strategies, a crash and a restart each — result
//! bits, network traffic and the rank-0 save counters must agree launch by
//! launch. The record pin then fixes what a `dist2` run leaves on disk.

use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_ckpt::{CheckpointStore, CkptTransport};
use ppar_core::ctx::Ctx;
use ppar_core::plan::{DistCkptStrategy, Plan, Plug};
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable as sor;
use ppar_jgf::sor::SorParams;
use ppar_md::MdConfig;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_dx1_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// What one launch is compared on.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per-rank result bits.
    bits: Vec<Vec<u64>>,
    msgs: u64,
    bytes: u64,
    snapshots: u64,
    /// Rank-0 bytes written, less the mode tag each record carries: the
    /// tag is the one byte string that names the deployment.
    payload_bytes: u64,
}

/// Launch `app(ctx, crash)` twice in `dir` — crash, then restart to
/// completion — and report both launches.
fn crash_then_restart(
    deploy: &Deploy,
    plan: &Plan,
    tag: &str,
    app: impl Fn(&Ctx, bool) -> Vec<u64> + Sync,
) -> Vec<Observed> {
    let dir = tmpdir(tag);
    let runs = [true, false]
        .map(|crash| {
            let status = if crash {
                AppStatus::Crashed
            } else {
                AppStatus::Completed
            };
            let outcome = launch(deploy, plan.clone(), Some(&dir), None, |ctx| {
                (status, (app(ctx, crash), ctx.mode().tag().len() as u64))
            })
            .unwrap();
            assert_eq!(outcome.replayed, !crash, "{tag}: the restart replays");
            let stats = outcome.stats.expect("rank-0 checkpoint stats");
            let traffic = outcome
                .traffic
                .expect("aggregate deployments report traffic");
            let tag_len = outcome.results[0].1 .1;
            Observed {
                bits: outcome.results.into_iter().map(|(_, r)| r.0).collect(),
                msgs: traffic.msgs(),
                bytes: traffic.bytes(),
                snapshots: stats.snapshots_taken,
                payload_bytes: stats.bytes_written - stats.snapshots_taken * tag_len,
            }
        })
        .into();
    let _ = std::fs::remove_dir_all(&dir);
    runs
}

fn sor_app(ctx: &Ctx, crash: bool) -> Vec<u64> {
    let p = SorParams {
        fail_after: crash.then_some(5),
        ..SorParams::new(33, 8)
    };
    vec![sor::sor_pluggable(ctx, &p).checksum.to_bits()]
}

fn md_app(ctx: &Ctx, crash: bool) -> Vec<u64> {
    let cfg = MdConfig {
        fail_after: crash.then_some(4),
        ..MdConfig::new(27, 6)
    };
    let r = ppar_md::md_pluggable(ctx, &cfg);
    [r.kinetic, r.potential, r.checksum]
        .map(f64::to_bits)
        .into()
}

#[test]
fn dist_and_hybrid_at_width_one_are_the_same_run() {
    type App = fn(&Ctx, bool) -> Vec<u64>;
    let workloads: [(&str, Plan, Plan, App); 2] = [
        ("sor", sor::plan_dist(), sor::plan_ckpt(2), sor_app),
        ("md", ppar_md::plan_dist(), ppar_md::plan_ckpt(2), md_app),
    ];
    for (name, dist_plan, ckpt_plan, app) in workloads {
        for strategy in [
            DistCkptStrategy::MasterCollect,
            DistCkptStrategy::LocalSnapshot,
        ] {
            let plan = dist_plan
                .clone()
                .merge(ckpt_plan.clone())
                .plug(Plug::DistCkpt { strategy });
            for p in [2usize, 3] {
                let cfg = SpmdConfig::instant(p);
                let case = format!("{name}_{strategy:?}_{p}");
                let dist = crash_then_restart(&Deploy::Dist(cfg), &plan, &case, app);
                let width_one = Deploy::Hybrid {
                    cfg,
                    threads: 1,
                    max_threads: 1,
                };
                let hyb = crash_then_restart(&width_one, &plan, &format!("{case}_h"), app);
                assert!(dist[0].snapshots >= 1, "{case}: the crash run saved");
                assert_eq!(dist, hyb, "{case}");
            }
        }
    }
}

/// A plan that also plugs a parallel method forks a team of one on every
/// rank under the width-one engine; the numbers must not notice.
#[test]
fn forked_team_of_one_changes_nothing() {
    let plan = sor::plan_hybrid().merge(sor::plan_ckpt(2));
    let cfg = SpmdConfig::instant(2);
    let dist = crash_then_restart(&Deploy::Dist(cfg), &plan, "fork_d", sor_app);
    let hyb = crash_then_restart(&Deploy::hybrid(cfg, 1), &plan, "fork_h", sor_app);
    assert_eq!(dist, hyb);
}

/// What a `dist2` run leaves behind is fixed: the constants were recorded
/// on the commit that still ran `Deploy::Dist` on its own engine.
#[test]
fn dist2_master_record_is_pinned() {
    let dir = tmpdir("record");
    let plan = sor::plan_dist().merge(sor::plan_ckpt(2));
    launch(
        &Deploy::Dist(SpmdConfig::instant(2)),
        plan,
        Some(&dir),
        None,
        |ctx| (AppStatus::Crashed, sor_app(ctx, true)),
    )
    .unwrap();
    let master = CheckpointStore::new(&dir)
        .unwrap()
        .get(None, None)
        .unwrap()
        .expect("the crashed run left a master record");
    assert_eq!(master.mode_tag, "dist2");
    assert_eq!((master.count, master.rank, master.nranks), (4, None, 2));
    // The canonical encoding trails the CRC-32 of everything before it.
    let record = master.encode();
    let (body, crc) = record.split_at(record.len() - 4);
    assert_eq!(body.len(), 8881);
    assert_eq!(crc, 0x5d76_d02d_u32.to_le_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}
