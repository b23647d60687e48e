//! SOR base code (written once) and its plan modules.
//!
//! The base code announces join points only; the plans below rewrite it
//! into the paper's deployment targets. Note how the distributed plan is the
//! same shape as the paper's Fig. 1 templates (Partitioned + data updates at
//! named points), and the checkpoint plan is exactly the programmer burden
//! §IV.A describes: safe data + safe points + ignorable methods.

use std::sync::Arc;
use std::time::Instant;

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;
use ppar_core::sync::Mutex;

use super::{fill_grid, interior_rows, relax_grid_row, SorParams, SorResult};

/// The SOR base code. Sequential by construction; all parallel, distributed
/// and fault-tolerance behaviour is plugged by plans.
pub fn sor_pluggable(ctx: &Ctx, p: &SorParams) -> SorResult {
    let g = ctx.alloc_grid("G", p.n, p.n, 0.0f64);

    let g_init = g.clone();
    let seed = p.seed;
    ctx.call("init_grid", move |_| {
        fill_grid(&g_init, seed);
    });

    let iter_times: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let done = Arc::new(Mutex::new(0usize));

    {
        let g = g.clone();
        let iter_times = iter_times.clone();
        let done = done.clone();
        let n = p.n;
        let omega = p.omega;
        let iterations = p.iterations;
        let fail_after = p.fail_after;
        let record = p.record_iter_times;
        ctx.region("sor_run", move |ctx| {
            let mut last = Instant::now();
            // The iteration loop is a *tracked* loop: the checkpoint module
            // records the current index in the `PPARPRG1` region cursor, so
            // a restart or reshape fast-forwards straight to the crossing
            // instead of replaying every earlier iteration.
            ctx.iter_loop("iters", 0..iterations, |ctx, it| {
                for color in 0..2usize {
                    // Data-update point: the distributed plan exchanges G's
                    // halo rows here before each sweep.
                    ctx.point("pre_sweep");
                    let g = g.clone();
                    ctx.call("sweep", move |ctx| {
                        ctx.each("rows", interior_rows(n), |_, i| {
                            relax_grid_row(&g, i, color, omega);
                        });
                    });
                }
                // Safe point: checkpoints and adaptations happen here.
                ctx.point("iter_end");
                if ctx.is_master() && ctx.is_root() {
                    if record {
                        let now = Instant::now();
                        iter_times.lock().push((now - last).as_secs_f64());
                        last = now;
                    }
                    *done.lock() = it + 1;
                }
                Some(it + 1) != fail_after
            });
        });
    }

    let crashed = p.fail_after.is_some();
    if !crashed {
        // Data-update point: the distributed plan gathers G at the root.
        ctx.point("collect");
    }

    let iterations_done = *done.lock();
    let iter_times = std::mem::take(&mut *iter_times.lock());
    SorResult {
        checksum: g.sum_f64(),
        iterations_done,
        iter_times,
    }
}

/// Sequential deployment: no plugs (the "unplugged" base code).
pub fn plan_seq() -> Plan {
    Plan::new()
}

/// Shared-memory deployment: the run is a parallel method; row sweeps are
/// work-shared block-wise (each sweep ends with the construct's implicit
/// barrier, which is exactly the red/black synchronisation SOR needs).
pub fn plan_smp() -> Plan {
    plan_smp_with(Schedule::Block)
}

/// Shared-memory deployment with an explicit row schedule (the Fig. 8
/// schedule study compares static block against dynamic/guided claiming on
/// imbalanced sweeps).
pub fn plan_smp_with(schedule: Schedule) -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "sor_run".into(),
        })
        .plug(Plug::For {
            loop_name: "rows".into(),
            schedule,
        })
}

/// Hybrid deployment: the distributed plan (rank-level row partition +
/// halo updates) composed with the shared-memory plan — each aggregate
/// element's local team work-shares the element's owned rows.
pub fn plan_hybrid() -> Plan {
    plan_dist().merge(plan_smp())
}

/// Distributed deployment: G is block-partitioned by rows; each sweep is
/// preceded by a halo exchange; row loops align with the partition; the
/// final state is collected at the root.
pub fn plan_dist() -> Plan {
    Plan::new()
        .plug(Plug::Replicate {
            class: "Sor".into(),
        })
        .plug(Plug::Field {
            field: "G".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::UpdateAt {
            point: "pre_sweep".into(),
            field: "G".into(),
            action: UpdateAction::HaloExchange { halo: 1 },
        })
        .plug(Plug::DistFor {
            loop_name: "rows".into(),
            field: "G".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "G".into(),
            action: UpdateAction::Gather,
        })
}

/// The checkpointing module (§IV.A): compose with any deployment plan.
/// `every = 0` counts safe points without snapshotting (the Fig. 3
/// "0 checkpoints" rows).
pub fn plan_ckpt(every: usize) -> Plan {
    Plan::new()
        .plug(Plug::SafeData { field: "G".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["iter_end".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "sweep".into(),
        })
        .plug(Plug::Ignorable {
            method: "init_grid".into(),
        })
}

/// Checkpoint module whose safe points also land *mid-iteration*:
/// `pre_sweep` fires twice per loop pass (once per red/black color), so a
/// snapshot or reshape crossing can sit between the two sweeps of one
/// iteration — the mid-loop resume tests and the reshape progress sweep
/// pin the region cursor's behaviour exactly there, away from the clean
/// iteration boundary `iter_end` provides.
pub fn plan_ckpt_midloop(every: usize) -> Plan {
    Plan::new()
        .plug(Plug::SafeData { field: "G".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["pre_sweep".into(), "iter_end".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "sweep".into(),
        })
        .plug(Plug::Ignorable {
            method: "init_grid".into(),
        })
}

/// Checkpoint module with an explicit distributed strategy (for the
/// master-collect vs local-snapshot ablation).
pub fn plan_ckpt_with_strategy(every: usize, strategy: DistCkptStrategy) -> Plan {
    plan_ckpt(every).plug(Plug::DistCkpt { strategy })
}

/// Incremental checkpoint module: [`plan_ckpt`] plus the
/// `IncrementalCkpt` plug, which no longer changes what a save writes —
/// every save is one record that writes only the 8 KiB chunks of `G`
/// changed since the record its file held, whatever the plan. Still a
/// one-plug addition over [`plan_ckpt`], the paper's "very small
/// programming overhead" claim (§V).
pub fn plan_ckpt_incremental(every: usize, full_every: usize) -> Plan {
    plan_ckpt(every).plug(Plug::IncrementalCkpt { full_every })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sor::sor_seq;
    use ppar_core::run_sequential;
    use ppar_core::runtime::run_smp;
    use ppar_dsm::{run_spmd_plain, SpmdConfig};

    fn params() -> SorParams {
        SorParams::new(33, 8)
    }

    #[test]
    fn pluggable_seq_matches_reference() {
        let reference = sor_seq(&params());
        let result = run_sequential(Arc::new(plan_seq()), None, None, |ctx| {
            sor_pluggable(ctx, &params())
        });
        assert_eq!(result.checksum, reference.checksum);
        assert_eq!(result.iterations_done, 8);
    }

    #[test]
    fn pluggable_smp_matches_reference() {
        let reference = sor_seq(&params());
        for threads in [1, 2, 4, 7] {
            let result = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                sor_pluggable(ctx, &params())
            });
            assert_eq!(
                result.checksum, reference.checksum,
                "threads={threads}: red-black SOR must be bitwise reproducible"
            );
        }
    }

    #[test]
    fn pluggable_dist_matches_reference() {
        let reference = sor_seq(&params());
        for ranks in [1, 2, 3, 5] {
            let results =
                run_spmd_plain(&SpmdConfig::instant(ranks), Arc::new(plan_dist()), |ctx| {
                    sor_pluggable(ctx, &params())
                });
            assert_eq!(
                results[0].checksum, reference.checksum,
                "ranks={ranks}: distributed SOR must match after gather"
            );
        }
    }

    #[test]
    fn pluggable_hybrid_matches_reference() {
        let reference = sor_seq(&params());
        for (ranks, threads) in [(1, 2), (2, 2), (3, 2), (2, 4)] {
            let results = ppar_dsm::run_hybrid(
                &SpmdConfig::instant(ranks),
                threads,
                Arc::new(plan_hybrid()),
                &|_| (None, None),
                true,
                |ctx| sor_pluggable(ctx, &params()),
            );
            assert_eq!(
                results[0].checksum, reference.checksum,
                "ranks={ranks} threads={threads}: hybrid SOR must match after gather"
            );
        }
    }

    #[test]
    fn grids_without_interior_keep_their_initial_values_in_every_mode() {
        for n in 0..3 {
            let p = SorParams::new(n, 3);
            let initial = sor_seq(&p).checksum.to_bits();
            let seq = run_sequential(Arc::new(plan_seq()), None, None, |ctx| {
                sor_pluggable(ctx, &p)
            });
            assert_eq!(seq.checksum.to_bits(), initial, "seq n={n}");
            let smp = run_smp(Arc::new(plan_smp()), 2, None, None, |ctx| {
                sor_pluggable(ctx, &p)
            });
            assert_eq!(smp.checksum.to_bits(), initial, "smp n={n}");
            // The distributed engine wants a row of G per element (and says
            // so loudly), so an empty grid has no distributed deployment.
            if n > 0 {
                let cfg = SpmdConfig::instant(n.min(2));
                let dist =
                    run_spmd_plain(&cfg, Arc::new(plan_dist()), |ctx| sor_pluggable(ctx, &p));
                assert_eq!(dist[0].checksum.to_bits(), initial, "dist n={n}");
            }
        }
    }

    #[test]
    fn plans_validate() {
        assert!(plan_seq().validate().is_empty());
        assert!(plan_smp().validate().is_empty());
        assert!(plan_smp_with(Schedule::Guided { min_chunk: 2 })
            .validate()
            .is_empty());
        assert!(plan_dist().validate().is_empty());
        assert!(plan_hybrid().validate().is_empty());
        assert!(plan_dist().merge(plan_ckpt(10)).validate().is_empty());
        assert!(plan_dist()
            .merge(plan_ckpt_incremental(10, 5))
            .validate()
            .is_empty());
    }

    #[test]
    fn checkpoint_plan_is_small() {
        // §V: "specifying the safe points, ignorable methods and safe data
        // fields introduces a very small programming overhead". Count it.
        assert!(plan_ckpt(10).len() <= 4);
        // Incremental mode costs exactly one more plug.
        assert_eq!(plan_ckpt_incremental(10, 5).len(), plan_ckpt(10).len() + 1);
    }
}
