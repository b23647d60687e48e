//! # ppar-md — molecular dynamics with pluggable parallelisation
//!
//! A Lennard-Jones N-body simulator in the mould of the paper's reference
//! \[21\] (*Optimising Molecular Dynamics with product-lines*): velocity-Verlet
//! integration with all-pairs forces under a cutoff. The force and
//! integration loops are announced join points; plans deploy them
//! work-shared (SMP) or partitioned by particles (distributed, with
//! positions re-synchronised at an update point each step — every element
//! needs all positions for the pair sum).
//!
//! Forces on particle `i` are accumulated only into `force[i]` (Newton's
//! third law is *not* exploited), so parallel force evaluation writes
//! disjoint slots and the result is bitwise mode-independent.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;
use ppar_core::shared::SharedGrid;

/// Configuration of one MD run.
#[derive(Debug, Clone)]
pub struct MdConfig {
    /// Number of particles (rounded up to a cube for lattice init).
    pub particles: usize,
    /// Integration steps.
    pub steps: usize,
    /// Time step.
    pub dt: f64,
    /// Cubic box side.
    pub box_side: f64,
    /// Interaction cutoff radius.
    pub cutoff: f64,
    /// Initial-velocity seed.
    pub seed: u64,
    /// Crash after this step (checkpoint experiments).
    pub fail_after: Option<usize>,
}

impl MdConfig {
    /// A small liquid-ish system.
    pub fn new(particles: usize, steps: usize) -> MdConfig {
        MdConfig {
            particles,
            steps,
            dt: 0.002,
            box_side: 8.0,
            cutoff: 2.5,
            seed: 0x4D00_1234_ABCD_0001,
            fail_after: None,
        }
    }
}

fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) as f64) / (u64::MAX as f64)
}

/// Result of one MD run.
#[derive(Debug, Clone)]
pub struct MdResult {
    /// Total kinetic energy at the end.
    pub kinetic: f64,
    /// Total potential energy at the end.
    pub potential: f64,
    /// Position checksum (sum of all coordinates).
    pub checksum: f64,
    /// Steps completed.
    pub steps_done: usize,
}

#[inline]
fn minimum_image(mut d: f64, side: f64) -> f64 {
    if d > side * 0.5 {
        d -= side;
    } else if d < -side * 0.5 {
        d += side;
    }
    d
}

/// Compute the LJ force on particle `i` from all others, and its potential
/// contribution. Reads every position; writes nothing.
#[allow(clippy::too_many_arguments)]
fn force_on(i: usize, n: usize, pos: &SharedGrid<f64>, side: f64, cutoff2: f64) -> ([f64; 3], f64) {
    // One view of the whole position table (read-only here) instead of
    // three bounds-checked `get`s per pair.
    let all = pos.flat().cells(0..n * 3);
    let (xi, yi, zi) = (all[3 * i].get(), all[3 * i + 1].get(), all[3 * i + 2].get());
    let mut f = [0.0f64; 3];
    let mut pot = 0.0;
    for (j, pj) in all.chunks_exact(3).enumerate() {
        if j == i {
            continue;
        }
        let dx = minimum_image(xi - pj[0].get(), side);
        let dy = minimum_image(yi - pj[1].get(), side);
        let dz = minimum_image(zi - pj[2].get(), side);
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 < cutoff2 && r2 > 1e-12 {
            let inv2 = 1.0 / r2;
            let inv6 = inv2 * inv2 * inv2;
            let fmag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
            f[0] += fmag * dx;
            f[1] += fmag * dy;
            f[2] += fmag * dz;
            // half, because the pair appears twice across i-loops
            pot += 2.0 * inv6 * (inv6 - 1.0);
        }
    }
    (f, pot)
}

/// The MD base code.
pub fn md_pluggable(ctx: &Ctx, cfg: &MdConfig) -> MdResult {
    let n = cfg.particles;
    // Particle-major grids: the distribution index is the particle, so
    // block partitions never split one particle's coordinates.
    let pos = ctx.alloc_grid("positions", n, 3, 0.0f64);
    let vel = ctx.alloc_grid("velocities", n, 3, 0.0f64);
    let force = ctx.alloc_grid("forces", n, 3, 0.0f64);
    let pot = ctx.alloc_vec("potentials", n, 0.0f64);
    let steps_done = ctx.alloc_value("steps_done", 0u64);

    {
        let (pos, vel, cfg) = (pos.clone(), vel.clone(), cfg.clone());
        ctx.call("init_system", move |_| {
            // simple cubic lattice + small random velocities
            let per_side = (cfg.particles as f64).cbrt().ceil() as usize;
            let spacing = cfg.box_side / per_side as f64;
            let mut state = cfg.seed;
            for i in 0..cfg.particles {
                let (ix, iy, iz) = (
                    i % per_side,
                    (i / per_side) % per_side,
                    i / (per_side * per_side),
                );
                pos.set(i, 0, (ix as f64 + 0.5) * spacing);
                pos.set(i, 1, (iy as f64 + 0.5) * spacing);
                pos.set(i, 2, (iz as f64 + 0.5) * spacing);
                for k in 0..3 {
                    vel.set(i, k, (splitmix(&mut state) - 0.5) * 0.2);
                }
            }
        });
    }

    {
        let (pos, vel, force, pot, steps_done, cfg) = (
            pos.clone(),
            vel.clone(),
            force.clone(),
            pot.clone(),
            steps_done.clone(),
            cfg.clone(),
        );
        ctx.region("simulate", move |ctx| {
            let n = cfg.particles;
            let cutoff2 = cfg.cutoff * cfg.cutoff;
            let mut stop = false;
            // Replay discipline (§IV.A and the §IV.B expansion protocol):
            // the body's control flow must be deterministic and independent
            // of live safe data, so a replaying line of execution (restart,
            // or a worker joining a reshaped team mid-region) counts the
            // same safe points as the original pass. `steps_done` is
            // bookkeeping only — never a loop bound.
            for step in 0..cfg.steps {
                if stop {
                    break;
                }
                // Every element/worker needs fresh positions for the pair
                // sums; the distributed plan gathers + broadcasts here.
                ctx.point("sync_positions");
                let (pos2, force2, pot2, cfg2) =
                    (pos.clone(), force.clone(), pot.clone(), cfg.clone());
                ctx.call("compute_forces", move |ctx| {
                    ctx.each("force_loop", 0..n, |_, i| {
                        let (f, p) = force_on(i, n, &pos2, cfg2.box_side, cutoff2);
                        force2.set(i, 0, f[0]);
                        force2.set(i, 1, f[1]);
                        force2.set(i, 2, f[2]);
                        pot2.set(i, p);
                    });
                });
                let (pos3, vel3, force3, cfg3) =
                    (pos.clone(), vel.clone(), force.clone(), cfg.clone());
                ctx.call("integrate", move |ctx| {
                    ctx.each("integrate_loop", 0..n, |_, i| {
                        for k in 0..3 {
                            let v = vel3.get(i, k) + force3.get(i, k) * cfg3.dt;
                            vel3.set(i, k, v);
                            let mut x = pos3.get(i, k) + v * cfg3.dt;
                            // periodic wrap
                            if x < 0.0 {
                                x += cfg3.box_side;
                            } else if x >= cfg3.box_side {
                                x -= cfg3.box_side;
                            }
                            pos3.set(i, k, x);
                        }
                    });
                });
                ctx.point("step_end");
                if ctx.is_master() && ctx.is_root() {
                    steps_done.set((step + 1) as u64);
                }
                if Some(step + 1) == cfg.fail_after {
                    stop = true;
                }
            }
        });
    }

    if cfg.fail_after.is_none() {
        ctx.point("collect");
    }

    let kinetic: f64 = (0..n)
        .map(|i| {
            (0..3)
                .map(|k| 0.5 * vel.get(i, k) * vel.get(i, k))
                .sum::<f64>()
        })
        .sum();
    let potential: f64 = pot.as_slice().iter().sum();
    MdResult {
        kinetic,
        potential,
        checksum: pos.flat().as_slice().iter().sum(),
        steps_done: steps_done.get() as usize,
    }
}

/// Shared-memory plan.
pub fn plan_smp() -> Plan {
    plan_smp_with(Schedule::Block)
}

/// Shared-memory plan with an explicit schedule for the force loop (the
/// cutoff makes per-particle force cost uneven, so dynamic/guided claiming
/// is the interesting comparison). The cheap integrate loop stays block
/// scheduled.
pub fn plan_smp_with(schedule: Schedule) -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "simulate".into(),
        })
        .plug(Plug::For {
            loop_name: "force_loop".into(),
            schedule,
        })
        .plug(Plug::For {
            loop_name: "integrate_loop".into(),
            schedule: Schedule::Block,
        })
}

/// Hybrid plan: particle blocks partition across aggregate elements, each
/// element's local team work-shares its owned particles.
pub fn plan_hybrid() -> Plan {
    plan_dist().merge(plan_smp())
}

/// Distributed plan: particles partition by blocks; each step the root
/// collects the partitions and rebroadcasts the full position/velocity
/// state before forces (all-pairs needs every position everywhere).
pub fn plan_dist() -> Plan {
    Plan::new()
        .plug(Plug::Field {
            field: "positions".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::Field {
            field: "potentials".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::Field {
            field: "velocities".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::UpdateAt {
            point: "sync_positions".into(),
            field: "positions".into(),
            action: UpdateAction::Gather,
        })
        .plug(Plug::UpdateAt {
            point: "sync_positions".into(),
            field: "positions".into(),
            action: UpdateAction::Broadcast,
        })
        .plug(Plug::DistFor {
            loop_name: "force_loop".into(),
            field: "potentials".into(),
        })
        .plug(Plug::DistFor {
            loop_name: "integrate_loop".into(),
            field: "potentials".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "positions".into(),
            action: UpdateAction::Gather,
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "velocities".into(),
            action: UpdateAction::Gather,
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "potentials".into(),
            action: UpdateAction::Gather,
        })
}

/// Checkpoint module: positions + velocities + the step counter persist;
/// force evaluation and integration replay-skip.
pub fn plan_ckpt(every: usize) -> Plan {
    Plan::new()
        .plug(Plug::SafeData {
            field: "positions".into(),
        })
        .plug(Plug::SafeData {
            field: "velocities".into(),
        })
        .plug(Plug::SafeData {
            field: "steps_done".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["step_end".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "compute_forces".into(),
        })
        .plug(Plug::Ignorable {
            method: "integrate".into(),
        })
        .plug(Plug::Ignorable {
            method: "init_system".into(),
        })
}

/// Incremental checkpoint module: dirty-chunk delta snapshots with a full
/// promotion every `full_every` deltas. MD touches all particle state every
/// step, so its deltas stay near-full — the interesting cases are the SOR
/// boundary sweeps and partial-touch workloads; this plan exists so MD
/// exercises the full-delta degenerate path.
pub fn plan_ckpt_incremental(every: usize, full_every: usize) -> Plan {
    plan_ckpt(every).plug(Plug::IncrementalCkpt { full_every })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_adapt::{launch, AppStatus, Deploy};
    use ppar_core::run_sequential;
    use ppar_core::runtime::run_smp;
    use std::sync::Arc;

    fn cfg() -> MdConfig {
        MdConfig::new(64, 10)
    }

    #[test]
    fn positions_stay_in_box() {
        let r = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            let out = md_pluggable(ctx, &cfg());
            let reg = ctx.registry();
            assert!(reg.get("positions").is_some());
            out
        });
        assert!(r.checksum.is_finite());
        assert_eq!(r.steps_done, 10);
    }

    #[test]
    fn energy_is_bounded_over_short_runs() {
        // Not a strict conservation test (forces are cut off sharply), but
        // the system must not blow up over a short, small-dt run.
        let quiet = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &MdConfig::new(64, 1))
        });
        let later = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &MdConfig::new(64, 50))
        });
        let e0 = quiet.kinetic + quiet.potential;
        let e1 = later.kinetic + later.potential;
        assert!(
            (e1 - e0).abs() < 0.5 * e0.abs().max(1.0),
            "energy drifted wildly: {e0} -> {e1}"
        );
    }

    #[test]
    fn smp_matches_seq_bitwise() {
        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &cfg())
        });
        for threads in [2, 4] {
            let got = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                md_pluggable(ctx, &cfg())
            });
            assert_eq!(got.checksum, reference.checksum, "threads={threads}");
            assert_eq!(got.kinetic, reference.kinetic, "threads={threads}");
        }
    }

    #[test]
    fn smp_dynamic_and_guided_match_seq_bitwise() {
        // Claimed chunks only redistribute *which worker* computes a
        // particle's forces; every schedule must produce identical state.
        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &cfg())
        });
        for schedule in [
            Schedule::Dynamic { chunk: 4 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let got = run_smp(Arc::new(plan_smp_with(schedule)), 4, None, None, |ctx| {
                md_pluggable(ctx, &cfg())
            });
            assert_eq!(got.checksum, reference.checksum, "schedule={schedule:?}");
        }
    }

    #[test]
    fn hybrid_matches_seq_bitwise() {
        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &cfg())
        });
        let results = ppar_dsm::run_hybrid(
            &ppar_dsm::SpmdConfig::instant(2),
            2,
            Arc::new(plan_hybrid()),
            &|_| (None, None),
            true,
            |ctx| md_pluggable(ctx, &cfg()),
        );
        assert_eq!(results[0].checksum, reference.checksum);
        assert_eq!(results[0].kinetic, reference.kinetic);
    }

    #[test]
    fn dist_matches_seq_bitwise() {
        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &cfg())
        });
        for ranks in [2, 3] {
            let results = ppar_dsm::run_spmd_plain(
                &ppar_dsm::SpmdConfig::instant(ranks),
                Arc::new(plan_dist()),
                |ctx| md_pluggable(ctx, &cfg()),
            );
            assert_eq!(results[0].checksum, reference.checksum, "ranks={ranks}");
            assert_eq!(results[0].kinetic, reference.kinetic, "ranks={ranks}");
            assert_eq!(results[0].potential, reference.potential, "ranks={ranks}");
        }
    }

    #[test]
    fn checkpoint_restart_matches_uncrashed_run() {
        let dir = std::env::temp_dir().join(format!("ppar_md_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &cfg())
        });

        let plan = Plan::new().merge(plan_ckpt(3));
        launch(&Deploy::Seq, plan.clone(), Some(&dir), None, |ctx| {
            let mut c = cfg();
            c.fail_after = Some(7);
            (AppStatus::Crashed, md_pluggable(ctx, &c))
        })
        .unwrap();

        let report = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
            (AppStatus::Completed, md_pluggable(ctx, &cfg()))
        })
        .unwrap();
        assert!(report.replayed);
        let result = &report.results[0].1;
        assert_eq!(result.checksum, reference.checksum);
        assert_eq!(result.kinetic, reference.kinetic);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_checkpoint_restart_matches_uncrashed_run() {
        let dir = std::env::temp_dir().join(format!("ppar_md_inc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            md_pluggable(ctx, &cfg())
        });

        // Snapshot every 2 steps, full every 2 deltas: the crash at step 7
        // restarts from base(2) + deltas(4, 6) — all-dirty deltas, MD's
        // degenerate case — and must still be byte-exact.
        let plan = Plan::new().merge(plan_ckpt_incremental(2, 2));
        let report = launch(&Deploy::Seq, plan.clone(), Some(&dir), None, |ctx| {
            let mut c = cfg();
            c.fail_after = Some(7);
            (AppStatus::Crashed, md_pluggable(ctx, &c))
        })
        .unwrap();
        let s = report.stats.unwrap();
        assert!(s.delta_snapshots > 0, "incremental mode must write deltas");

        let report = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
            (AppStatus::Completed, md_pluggable(ctx, &cfg()))
        })
        .unwrap();
        assert!(report.replayed);
        let result = &report.results[0].1;
        assert_eq!(result.checksum, reference.checksum);
        assert_eq!(result.kinetic, reference.kinetic);
        assert_eq!(result.potential, reference.potential);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
