//! `smc_task`: the particle filter of `ppar-smc` on the task engine, with
//! 84% of the propagation cost in the first quarter of the particles.

use std::collections::BTreeMap;

use super::{rotated, timed_setups, Env, Kind, Yardsticks, MIN_ROUNDS, ONE_CORE};
use crate::layers::{self, Eng, SmcArm, SmcSpec};
use crate::report::WorkloadReport;
use crate::scratch::discard;
use crate::stats::{median, per_round_ratio};

const ARMS: [SmcArm; 4] = [
    SmcArm::Seq,
    SmcArm::Static2,
    SmcArm::Steal2,
    SmcArm::StealCkpt2,
];

pub fn run(env: &Env<'_>) -> WorkloadReport {
    let mut r = WorkloadReport::new("smc_task", env.tracer.enabled());
    let spec = SmcSpec {
        particles: if env.quick { 512 } else { 4096 },
        steps: env.steps(12),
        chunk: 32,
        work: 800,
        seed: env.seed_for("smc"),
    };
    let arms: Vec<SmcArm> = ARMS
        .into_iter()
        .filter(|a| env.parallel() || *a == SmcArm::Seq)
        .collect();
    let run_arm = |arm: SmcArm, spec: &SmcSpec| {
        let dir = env.scratch.fresh("smc_ckpt");
        let out = layers::run_smc(arm, spec, Some(&dir));
        discard(&dir);
        out
    };

    // Set-up: the sequential reference (busy work never changes a result,
    // so the reference runs without it) and every arm on two steps.
    let mut speed = Yardsticks::of(Kind::Alu);
    let setup = timed_setups(&mut r, env.setup_reps(), &mut speed, || {
        let reference = layers::run_smc(SmcArm::Seq, &SmcSpec { work: 0, ..spec }, None)?.result;
        for &arm in &arms {
            run_arm(arm, &SmcSpec { steps: 2, ..spec })?;
        }
        Ok(reference)
    });
    let Some(reference) = setup else {
        return r;
    };

    let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut frontier_bytes, mut frontier_save) = (Vec::new(), Vec::new());
    let mut rounds = env.rounds(MIN_ROUNDS);
    while rounds.another() {
        for arm in rotated(&arms, rounds.index()) {
            if arm == SmcArm::Steal2 {
                speed.take();
            }
            let (out, _) = env.tracer.time("task", arm.tag(), || run_arm(arm, &spec));
            let sample = match out {
                Ok(o) => {
                    r.op(o.result == reference, || {
                        format!("{}: result differs from sequential SMC", arm.tag())
                    });
                    if let Some(c) = o.ckpt.filter(|c| c.snapshots > 0) {
                        // One save per resampling point, the last included.
                        let want = spec.steps as u64;
                        r.ops(want, want.saturating_sub(c.snapshots), || {
                            format!("{}: {} of {want} saves taken", arm.tag(), c.snapshots)
                        });
                        frontier_bytes.push(c.bytes_written as f64 / c.snapshots as f64);
                        frontier_save.push(c.save_s * 1e3 / c.snapshots as f64);
                    }
                    o.wall_s
                }
                Err(e) => {
                    r.op(false, || format!("{}: {e}", arm.tag()));
                    f64::NAN
                }
            };
            wall.entry(arm.tag()).or_default().push(sample);
        }
    }
    r.rounds = rounds.done;

    let of = |arm: SmcArm| wall.get(arm.tag()).map_or(&[][..], Vec::as_slice);
    if env.parallel() {
        let (seq, stat) = (of(SmcArm::Seq), of(SmcArm::Static2));
        let (steal, ckpt) = (of(SmcArm::Steal2), of(SmcArm::StealCkpt2));
        speed.report_run(&mut r, steal);
        r.named_value("ckpt_overhead", per_round_ratio(ckpt, steal));
        r.named_value("steal_vs_static", per_round_ratio(stat, steal));
        r.named_value("parallel_cost", per_round_ratio(steal, seq));
    } else {
        for m in [
            "run_s",
            "run_norm_s",
            "ckpt_overhead",
            "steal_vs_static",
            "parallel_cost",
        ] {
            r.skip(m, ONE_CORE);
        }
    }

    if env.tracer.enabled() {
        r.layer_value(
            "smc.particle_steps_per_s",
            spec.particle_steps() as f64 / median(of(SmcArm::Seq)),
        );
        r.layer_median("task.frontier_bytes", &frontier_bytes);
        r.layer_median("task.frontier_save_ms", &frontier_save);
        if env.parallel() {
            probes(env, &mut r, &spec);
        }
    }
    r
}

fn probes(env: &Env<'_>, r: &mut WorkloadReport, spec: &SmcSpec) {
    let tracer = env.tracer;
    let reps = if env.quick { 3 } else { 9 };
    let tasks = if env.quick { 10_000 } else { 100_000 };
    let (mut overhead, mut launch, mut quiesce) = (vec![], vec![], vec![]);
    let (mut share_static, mut share_steal) = (vec![], vec![]);
    for _ in 0..reps {
        let (v, _) = tracer.time("task", "empty_tasks", || {
            layers::probe_task_overhead_s(tasks)
        });
        overhead.extend(r.attempt("task probe", v).map(|s| s * 1e9));
        let (v, _) = tracer.time("adapt", "launch", || layers::probe_launch_s(Eng::Task2));
        launch.extend(r.attempt("launch probe", v).map(|s| s * 1e3));
        // A safe point under the task engine also checks that every graph
        // is quiescent; the same crossing under the plain team does not.
        let mut crossing = |eng: Eng| {
            let dir = env.scratch.fresh("quiesce");
            let (v, _) = tracer.time("task", "safepoint", || {
                layers::probe_safepoint_s(eng, &dir, 20_000)
            });
            discard(&dir);
            r.attempt("safe-point probe", v)
        };
        if let (Some(task), Some(team)) = (crossing(Eng::Task2), crossing(Eng::Smp2)) {
            quiesce.push((task - team) * 1e6);
        }
        for (steal, samples) in [(false, &mut share_static), (true, &mut share_steal)] {
            let (v, _) = tracer.time("task", "worker_share", || {
                layers::probe_worker_share(spec, steal)
            });
            samples.extend(r.attempt("share probe", v));
        }
    }
    r.layer_median("task.task_overhead_ns", &overhead);
    r.layer_median("adapt.launch_ms.task2", &launch);
    r.layer_median("task.quiesce_point_us", &quiesce);
    r.layer_median("task.max_worker_share.static", &share_static);
    r.layer_median("task.max_worker_share.steal", &share_steal);
}
