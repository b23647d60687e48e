//! `recover_reshape`: the read side. (a) SOR on `smp2` with a flat
//! checkpoint every 4 iterations: uninterrupted, stopped right after the
//! last checkpoint and restarted (nothing is left to compute, so the second
//! launch is the restart cost), stopped at 3N/4 and restarted.
//! (b) `sparse_relax` under `launch_live`: `smp2 -> dist2` by in-memory
//! hand-off, and `smp1 -> smp2` in place.

use super::{ms, rotated, timed_setups, Env, Kind, Yardsticks, MIN_ROUNDS, ONE_CORE};
use crate::layers::{self, Eng, LiveOutcome, MemHandoff, RelaxCfg, SorSpec, State};
use crate::report::WorkloadReport;
use crate::scratch::{copy_dir, discard};
use crate::stats::{median, per_round_ratio};

const CKPT_EVERY: usize = 4;
/// Restarts measured per run stopped at the end, each from its own copy of
/// the store the stopped run left. (After a stop at 3N/4 one restart, which
/// recomputes a quarter of the run, is sample enough.)
const RESTARTS: usize = 3;
/// Live sessions of each kind per round. A session is 20-40 ms, short
/// enough for one burst of the host to double it: with 3 per round
/// `reshape_overhead` spread by 10%, 10% and 27% in three ten-seed studies,
/// with 9 by 6% on a host slowed 1.5x, where the rounds took 23 s of 15.
const LIVE_SESSIONS: usize = 6;
const LIVE_STEPS: usize = 16;
/// Samples of the reference arm (the uninterrupted run) per round.
const REFERENCE_SAMPLES: usize = 2;
/// The reshape request lands at this safe-point crossing (1-based).
const SWITCH_AT: u64 = 8;

const NAMED: [&str; 8] = [
    "setup_s",
    "run_s",
    "run_norm_s",
    "restart_overhead_last",
    "restart_overhead",
    "reshape_overhead",
    "restart_ms",
    "reshape_handoff_ms",
];

/// SOR iterations; the run is stopped after all of them (right after the
/// last checkpoint) or after three quarters.
const ITERATIONS: usize = 64;
/// A crossing no session reaches: the same `launch_live` session with no
/// reshape, the baseline of `reshape_overhead`.
const NEVER: u64 = 1 << 40;

/// The gap between the `step_end` stamps either side of the switch, minus
/// the session's median step gap, in ms. `None` unless every step was
/// stamped exactly once, in order.
fn switch_gap_ms(o: &LiveOutcome, steps: usize) -> Option<f64> {
    let in_order = o.stamps.len() == steps && o.stamps.iter().enumerate().all(|(i, s)| s.step == i);
    if !in_order {
        return None;
    }
    let gaps: Vec<f64> = o
        .stamps
        .windows(2)
        .map(|w| w[1].exit.saturating_duration_since(w[0].exit).as_secs_f64() * 1e3)
        .collect();
    // Crossing k is the safe point of step k-1; the gap that ends there has
    // index k-2.
    let at = (SWITCH_AT as usize).checked_sub(2)?;
    let others: Vec<f64> = gaps
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != at)
        .map(|(_, g)| *g)
        .collect();
    Some(gaps.get(at)? - median(&others))
}

pub fn run(env: &Env<'_>) -> WorkloadReport {
    let mut r = WorkloadReport::new("recover_reshape", env.tracer.enabled());
    if !env.parallel() {
        for metric in NAMED {
            r.skip(metric, ONE_CORE);
        }
        return r;
    }
    let iterations = env.steps(ITERATIONS);
    let stop_3n4 = iterations * 3 / 4;
    let spec = SorSpec {
        n: if env.quick { 362 } else { 1024 },
        iterations,
        seed: env.seed_for("sor_grid"),
    };
    let relax = RelaxCfg {
        chunks: if env.quick { 256 } else { 2048 },
        steps: LIVE_STEPS,
        window_chunks: if env.quick { 12 } else { 102 },
        seed: env.seed_for("relax_state"),
        fail_after: None,
    };

    // Set-up: both references, a short checkpointed SOR run (pool, first
    // touch of the store directory) and a short live session.
    let mut speed = Yardsticks::of_two(Kind::Sweep, Kind::Team);
    let setup = timed_setups(&mut r, env.setup_reps(), &mut speed, || {
        let sor_ref = layers::sor_reference_checksum(&spec);
        let relax_ref = layers::sparse_relax_reference(&relax);
        let dir = env.scratch.fresh("warm_sor");
        let warm = SorSpec {
            iterations: CKPT_EVERY,
            ..spec
        };
        let ran = layers::run_sor_ckpt(&dir, &warm, CKPT_EVERY, None);
        discard(&dir);
        ran?;
        let short = RelaxCfg {
            steps: 4,
            ..relax.clone()
        };
        layers::run_relax_live(Eng::Smp2, Eng::Dist2, 2, &short)?;
        Ok((sor_ref, relax_ref))
    });
    let Some((sor_ref, relax_ref)) = setup else {
        return r;
    };

    let tracer = env.tracer;
    let mut uninterrupted = Vec::new();
    let mut reference_arm = Vec::new();
    let mut with_failure = Vec::new();
    let mut with_late_failure = Vec::new();
    let mut reshaped = Vec::new();
    let mut undisturbed = Vec::new();
    let mut restart_last = Vec::new();
    let mut restart_3n4 = Vec::new();
    let mut handoff = Vec::new();
    let mut inplace = Vec::new();
    let (mut load, mut replay, mut replayed, mut resumed) = (vec![], vec![], vec![], vec![]);
    let mut live_load = Vec::new();
    let mut rounds = env.rounds(MIN_ROUNDS);
    while rounds.another() {
        let mut whole = f64::NAN;
        let mut failed_at_3n4 = f64::NAN;
        let mut failed_at_end = f64::NAN;
        for stop in rotated(&[None, Some(iterations), Some(stop_3n4)], rounds.index()) {
            let Some(stop) = stop else {
                // Each sample between two readings of the yardstick; the
                // first is also the baseline of this round's overheads.
                speed.take();
                for nth in 0..REFERENCE_SAMPLES {
                    if nth > 0 {
                        speed.take_next();
                    }
                    let dir = env.scratch.fresh("sor_whole");
                    let (out, _) = tracer.time("adapt", "launch.sor_ckpt", || {
                        layers::run_sor_ckpt(&dir, &spec, CKPT_EVERY, None)
                    });
                    discard(&dir);
                    speed.take_after();
                    let right = |o: &layers::SorCkptOutcome| o.completed && o.checksum == sor_ref;
                    let sample = r
                        .attempt_if("uninterrupted sor", out, right)
                        .map_or(f64::NAN, |o| o.wall_s);
                    if nth == 0 {
                        whole = sample;
                    }
                    reference_arm.push(sample);
                }
                continue;
            };
            // Stopped after iteration `stop`, then restarted from copies of
            // the store directory the stopped run left behind.
            let dir = env.scratch.fresh("sor_stopped");
            let (out, _) = tracer.time("adapt", "launch.sor_stopped", || {
                layers::run_sor_ckpt(&dir, &spec, CKPT_EVERY, Some(stop))
            });
            let right = |o: &layers::SorCkptOutcome| !o.completed && o.iterations_done == stop;
            let Some(stopped) = r.attempt_if("sor stopped on purpose", out, right) else {
                discard(&dir);
                continue;
            };
            let mut this_round = Vec::new();
            let restarts = if stop == iterations { RESTARTS } else { 1 };
            for _ in 0..restarts {
                let copy = env.scratch.fresh("sor_restart");
                if r.attempt(
                    "copy store",
                    copy_dir(&dir, &copy).map_err(|e| e.to_string()),
                )
                .is_none()
                {
                    continue;
                }
                let (out, _) = tracer.time("adapt", &format!("restart.at{stop}"), || {
                    layers::run_sor_ckpt(&copy, &spec, CKPT_EVERY, None)
                });
                discard(&copy);
                let right =
                    |o: &layers::SorCkptOutcome| o.completed && o.replayed && o.checksum == sor_ref;
                let Some(o) = r.attempt_if("restart", out, right) else {
                    continue;
                };
                this_round.push(o.wall_s);
                if stop == iterations {
                    load.push(o.ckpt.load_s * 1e3);
                    replay.push(o.ckpt.replay_s * 1e3);
                    replayed.push(o.ckpt.replayed_points as f64);
                    resumed.push(o.ckpt.resumed_at_point as f64);
                }
            }
            discard(&dir);
            // Time to solution with one failure: the stopped run plus the
            // restarted one.
            let to_solution = stopped.wall_s + median(&this_round);
            if stop == stop_3n4 {
                failed_at_3n4 = to_solution;
                restart_3n4.extend(ms(&this_round));
            } else {
                failed_at_end = to_solution;
                restart_last.extend(ms(&this_round));
            }
        }
        uninterrupted.push(whole);
        with_failure.push(failed_at_3n4);
        with_late_failure.push(failed_at_end);

        // Live sessions: reshaped by hand-off, grown in place, undisturbed.
        let (mut reshaped_s, mut undisturbed_s) = (Vec::new(), Vec::new());
        for _ in 0..LIVE_SESSIONS {
            let (out, _) = tracer.time("adapt", "live.undisturbed", || {
                layers::run_relax_live(Eng::Smp2, Eng::Dist2, NEVER, &relax)
            });
            let right = |o: &LiveOutcome| o.completed && o.checksum == relax_ref && o.launches == 1;
            if let Some(o) = r.attempt_if("undisturbed live session", out, right) {
                undisturbed_s.push(o.wall_s);
            }
            let (out, _) = tracer.time("adapt", "live.smp2_to_dist2", || {
                layers::run_relax_live(Eng::Smp2, Eng::Dist2, SWITCH_AT, &relax)
            });
            // It must escalate: one hand-off, one relaunch.
            let right = |o: &LiveOutcome| {
                o.completed && o.checksum == relax_ref && o.escalated == 1 && o.launches == 2
            };
            if let Some(o) = r.attempt_if("live reshape smp2->dist2", out, right) {
                handoff.extend(switch_gap_ms(&o, LIVE_STEPS));
                live_load.extend(o.ckpt.as_ref().map(|c| c.load_s * 1e3));
                reshaped_s.push(o.wall_s);
            }
            let (out, _) = tracer.time("adapt", "live.smp1_to_smp2", || {
                layers::run_relax_live(Eng::Smp1Grow, Eng::Smp2, SWITCH_AT, &relax)
            });
            // It must not: the team grows in place, applied once.
            let right = |o: &LiveOutcome| {
                o.completed
                    && o.checksum == relax_ref
                    && o.escalated == 0
                    && o.launches == 1
                    && o.applied == 1
            };
            if let Some(o) = r.attempt_if("in-place reshape smp1->smp2", out, right) {
                inplace.extend(switch_gap_ms(&o, LIVE_STEPS));
            }
        }
        reshaped.push(median(&reshaped_s));
        undisturbed.push(median(&undisturbed_s));
    }
    r.rounds = rounds.done;

    speed.report_run(&mut r, &reference_arm);
    r.named_value(
        "restart_overhead",
        per_round_ratio(&with_failure, &uninterrupted),
    );
    r.named_value(
        "restart_overhead_last",
        per_round_ratio(&with_late_failure, &uninterrupted),
    );
    r.named_value("reshape_overhead", per_round_ratio(&reshaped, &undisturbed));
    r.named_median("restart_ms", &restart_last);
    r.named_median("reshape_handoff_ms", &handoff);

    if tracer.enabled() {
        r.layer_median("adapt.load_ms", &load);
        r.layer_median("adapt.replay_ms", &replay);
        r.layer_median("adapt.replayed_points", &replayed);
        r.layer_median("adapt.resumed_at_point", &resumed);
        r.layer_median("adapt.restart_3n4_ms", &restart_3n4);
        r.layer_median("adapt.inplace_reshape_ms", &inplace);

        // The hand-off re-enacted: the state into the in-memory transport
        // and back out, as the crossing and the successor's load do.
        let state = State::new(&relax);
        let into = State::new(&relax);
        state.rewrite(0);
        let mut mem = MemHandoff::new();
        let (mut puts, mut gets, mut bytes) = (vec![], vec![], 0);
        for count in 1..=if env.quick { 3 } else { 9 } {
            let (put, put_s) = tracer.time("ckpt", "mem_put", || mem.put(&state, count));
            if let Some(n) = r.attempt("memory put", put) {
                bytes = n;
                puts.push(put_s * 1e3);
            }
            let (got, get_s) = tracer.time("ckpt", "mem_get", || mem.install(&into));
            let right = |sum: &u64| *sum == state.checksum();
            if r.attempt_if("memory restore", got, right).is_some() {
                gets.push(get_s * 1e3);
            }
        }
        r.layer_median("ckpt.mem_put_ms", &puts);
        r.layer_median("ckpt.mem_get_ms", &gets);
        // `LiveOutcome.stats` is the successor's module, which took no
        // hand-off snapshot; the predecessor's is not returned. So the
        // hand-off is the re-enacted put, and the relaunch is what is left
        // of the gap after the put and the successor's load.
        r.layer_value("adapt.handoff_ms", median(&puts));
        r.layer_value("adapt.handoff_bytes", bytes as f64);
        r.layer_value(
            "adapt.relaunch_ms",
            median(&handoff) - median(&puts) - median(&live_load),
        );
    }
    r
}
