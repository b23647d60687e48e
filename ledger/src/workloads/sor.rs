//! `sor_compute`: JGF SOR with no checkpoint plugs, hand-written against
//! pluggable, in every mode two cores can run.

use std::collections::BTreeMap;

use super::{ms, rotated, timed_setups, Env, Kind, Yardsticks, MIN_ROUNDS, ONE_CORE};
use crate::layers::{self, Eng, SorArm, SorSpec};
use crate::report::WorkloadReport;
use crate::stats::{median, per_round_ratio};

/// The arm behind `run_s` and `run_norm_s`, and how often a round runs it.
const REFERENCE: SorArm = SorArm::PlugSmp2;
const REFERENCE_SAMPLES: usize = 2;

/// `(named ratio, pluggable arm, hand-written arm)`.
const PAIRS: [(&str, SorArm, SorArm); 3] = [
    ("overhead_pluggable_seq", SorArm::PlugSeq, SorArm::HandSeq),
    (
        "overhead_pluggable_smp2",
        SorArm::PlugSmp2,
        SorArm::HandThreads2,
    ),
    (
        "overhead_pluggable_dist2",
        SorArm::PlugDist2,
        SorArm::HandDist2,
    ),
];

/// The arms in the order round `round` runs them. Twins run back to back,
/// so that the two sides of a ratio meet the same weather; the pairs rotate
/// from round to round, and on every other round the hand-written twin goes
/// first.
fn order(round: usize, parallel: bool) -> Vec<SorArm> {
    let pairs: Vec<_> = PAIRS
        .iter()
        .filter(|(_, plug, _)| parallel || !plug.parallel())
        .collect();
    rotated(&pairs, round)
        .into_iter()
        .flat_map(|&(_, plug, hand)| {
            if round.is_multiple_of(2) {
                [plug, hand]
            } else {
                [hand, plug]
            }
        })
        .collect()
}

pub fn run(env: &Env<'_>) -> WorkloadReport {
    let mut r = WorkloadReport::new("sor_compute", env.tracer.enabled());
    let spec = SorSpec {
        // 1024^2 cells = 8 MiB; a quick pass takes an eighth of the cells.
        n: if env.quick { 362 } else { 1024 },
        iterations: env.steps(60),
        seed: env.seed_for("sor_grid"),
    };
    let arms = order(0, env.parallel());

    // Set-up: the reference checksum, and every arm once on a few
    // iterations (pool spawn, first touch of the grid pages).
    let warm = SorSpec {
        iterations: 4,
        ..spec
    };
    let mut speed = Yardsticks::of_two(Kind::Sweep, Kind::Team);
    let setup = timed_setups(&mut r, env.setup_reps(), &mut speed, || {
        let reference = layers::sor_reference_checksum(&spec);
        for &arm in &arms {
            layers::run_sor(arm, &warm)?;
        }
        Ok(reference)
    });
    let Some(reference) = setup else {
        return r;
    };

    let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut reference_arm = Vec::new();
    let mut traffic = None;
    let mut rounds = env.rounds(MIN_ROUNDS);
    while rounds.another() {
        for arm in order(rounds.index(), env.parallel()) {
            let mut sample = || {
                let (out, _) = env
                    .tracer
                    .time("jgf", arm.tag(), || layers::run_sor(arm, &spec));
                match out {
                    Ok(o) => {
                        r.op(o.checksum == reference, || {
                            format!("{}: checksum differs from sor_seq", arm.tag())
                        });
                        traffic = o.traffic.or(traffic);
                        o.wall_s
                    }
                    Err(e) => {
                        r.op(false, || format!("{}: {e}", arm.tag()));
                        f64::NAN
                    }
                }
            };
            if arm == REFERENCE {
                // Each sample between two readings of the yardstick; the
                // first is also the arm's sample of this round.
                speed.take();
                for nth in 0..REFERENCE_SAMPLES {
                    if nth > 0 {
                        speed.take_next();
                    }
                    reference_arm.push(sample());
                    speed.take_after();
                }
                let first = reference_arm[reference_arm.len() - REFERENCE_SAMPLES];
                wall.entry(arm.tag()).or_default().push(first);
            } else {
                wall.entry(arm.tag()).or_default().push(sample());
            }
        }
    }
    r.rounds = rounds.done;

    let of = |arm: SorArm| wall.get(arm.tag()).map_or(&[][..], Vec::as_slice);
    for (ratio, plug, hand) in PAIRS {
        if of(plug).is_empty() {
            r.skip(ratio, ONE_CORE);
        } else {
            r.named_value(ratio, per_round_ratio(of(plug), of(hand)));
        }
    }
    if reference_arm.is_empty() {
        r.skip("run_s", ONE_CORE);
        r.skip("run_norm_s", ONE_CORE);
    } else {
        speed.report_run(&mut r, &reference_arm);
    }

    if env.tracer.enabled() {
        layer_metrics(env, &mut r, &spec, of(SorArm::HandSeq), traffic);
    }
    r
}

fn layer_metrics(
    env: &Env<'_>,
    r: &mut WorkloadReport,
    spec: &SorSpec,
    hand_seq: &[f64],
    traffic: Option<layers::TrafficCount>,
) {
    r.layer_value(
        "jgf.sor_mcells_per_s",
        spec.cell_updates() as f64 / median(hand_seq) / 1e6,
    );
    if let Some(t) = traffic {
        r.layer_value("dsm.msgs_per_step", t.msgs as f64 / spec.iterations as f64);
        r.layer_value(
            "dsm.bytes_per_step",
            t.bytes as f64 / spec.iterations as f64,
        );
    }

    let tracer = env.tracer;
    let reps = if env.quick { 3 } else { 9 };
    let calls = if env.quick { 20_000 } else { 200_000 };
    let mut joinpoint = Vec::new();
    let mut grid = Vec::new();
    let mut raw = Vec::new();
    let mut forkjoin = Vec::new();
    let mut each = Vec::new();
    let mut halo = Vec::new();
    let mut gather = Vec::new();
    let mut launch: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..reps {
        let (v, _) = tracer.time("core", "joinpoint", || layers::probe_joinpoint_s(calls));
        joinpoint.extend(r.attempt("joinpoint probe", v));
        let ((g, s), _) = tracer.time("core", "grid_access", || {
            layers::probe_grid_access_s(spec.n, spec.seed)
        });
        grid.push(g);
        raw.push(s);
        for eng in [Eng::Seq, Eng::Smp2, Eng::Dist2] {
            if eng != Eng::Seq && !env.parallel() {
                continue;
            }
            let (v, _) = tracer.time("adapt", "launch", || layers::probe_launch_s(eng));
            launch
                .entry(eng.tag())
                .or_default()
                .extend(r.attempt("launch probe", v));
        }
        if env.parallel() {
            let (v, _) = tracer.time("core", "region_forkjoin", || {
                layers::probe_region_forkjoin_s(calls / 100)
            });
            forkjoin.extend(r.attempt("fork/join probe", v));
            let (v, _) = tracer.time("core", "each_barrier", || {
                layers::probe_each_barrier_s(calls / 100)
            });
            each.extend(r.attempt("each probe", v));
            let (v, _) = tracer.time("dsm", "halo_gather", || {
                layers::probe_halo_gather_s(spec.n, 2 * spec.iterations)
            });
            if let Some((h, g)) = r.attempt("halo probe", v) {
                halo.push(h);
                gather.push(g);
            }
        }
    }
    let scaled = |v: &[f64], by: f64| v.iter().map(|x| x * by).collect::<Vec<_>>();
    r.layer_median("core.joinpoint_ns", &scaled(&joinpoint, 1e9));
    r.layer_median("core.grid_access_ns", &scaled(&grid, 1e9));
    r.layer_value("core.grid_access_ratio", per_round_ratio(&grid, &raw));
    for (eng, samples) in &launch {
        r.layer_median(&format!("adapt.launch_ms.{eng}"), &ms(samples));
    }
    if env.parallel() {
        r.layer_median("core.region_forkjoin_us", &scaled(&forkjoin, 1e6));
        r.layer_median("core.each_barrier_us", &scaled(&each, 1e6));
        r.layer_median("dsm.halo_us", &scaled(&halo, 1e6));
        r.layer_median("dsm.gather_ms", &ms(&gather));
    } else {
        for m in [
            "core.region_forkjoin_us",
            "core.each_barrier_us",
            "dsm.halo_us",
            "dsm.gather_ms",
        ] {
            r.skip(m, ONE_CORE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twins_run_back_to_back_and_take_turns_going_first() {
        for round in 0..6 {
            let arms = order(round, true);
            assert_eq!(arms.len(), 6);
            for (pair, &(_, plug, hand)) in arms.chunks(2).zip(rotated(&PAIRS, round).iter()) {
                let want = if round.is_multiple_of(2) {
                    [plug, hand]
                } else {
                    [hand, plug]
                };
                assert_eq!(pair, want, "round {round}");
            }
        }
        // Over six rounds every pair has run in every place.
        let firsts: Vec<SorArm> = (0..6).map(|round| order(round, true)[0]).collect();
        for (_, plug, hand) in PAIRS {
            assert!(firsts.contains(&plug) && firsts.contains(&hand));
        }
        // One core: the sequential pair alone.
        assert_eq!(order(0, false), [SorArm::PlugSeq, SorArm::HandSeq]);
        assert_eq!(order(1, false), [SorArm::HandSeq, SorArm::PlugSeq]);
    }
}
