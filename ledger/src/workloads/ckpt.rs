//! `ckpt_sparse` and `ckpt_dense`: the write side. `sparse_relax` on
//! `smp2` saves at every step; one workload rewrites 5% of the state per
//! step, the other all of it.

use std::collections::BTreeMap;

use super::{rotated, timed_setups, Env, Kind, Yardsticks, MIN_ROUNDS_OF_MANY_SAVES, ONE_CORE};
use crate::layers::{self, Eng, Layout, RelaxCfg, Saves, State, Store, CHUNK_BYTES};
use crate::report::WorkloadReport;
use crate::scratch::{dir_bytes, discard, listing};
use crate::stats::{median, per_round_ratio, percentile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dirty {
    Sparse,
    Dense,
}

#[derive(Clone, Copy)]
struct Arm {
    tag: &'static str,
    saves: Saves,
    layout: Option<Layout>,
    steps: usize,
    /// Runs per round; the round's sample is their median. The arm without
    /// checkpoints is a few tens of milliseconds of launch and first touch,
    /// and it is the denominator of `ckpt_overhead`: one sample of it per
    /// round would put its noise straight into the ratio.
    repeats: usize,
}

const FULL_EVERY: usize = 8;

fn arms(steps: usize) -> [Arm; 5] {
    [
        Arm {
            tag: "none",
            saves: Saves::Unplugged,
            layout: None,
            steps,
            repeats: 3,
        },
        // The module plugged and counting safe points, with no save ever
        // due: the paper's "0 checkpoints taken" row.
        Arm {
            tag: "idle",
            saves: Saves::CountOnly,
            layout: Some(Layout::Flat),
            steps,
            repeats: 3,
        },
        Arm {
            tag: "flat",
            saves: Saves::Full { every: 1 },
            layout: Some(Layout::Flat),
            steps,
            repeats: 1,
        },
        Arm {
            tag: "delta",
            saves: Saves::Delta {
                every: 1,
                full_every: FULL_EVERY,
            },
            layout: Some(Layout::Flat),
            steps,
            repeats: 1,
        },
        Arm {
            tag: "cas",
            saves: Saves::Full { every: 1 },
            layout: Some(Layout::Cas),
            steps,
            repeats: 1,
        },
    ]
}

/// Reported by the untraced pass.
const NAMED: [&str; 9] = [
    "setup_s",
    "run_s",
    "run_norm_s",
    "ckpt_overhead",
    "ckpt_overhead_idle",
    "ckpt_overhead_delta",
    "restart_overhead_chain",
    "save_stall_ms_flat",
    "save_stall_ms_delta",
];
/// Reported by the traced pass only: everything the CAS does goes through
/// the virtual disk (its journal fsync flushes the new objects), which no
/// two runs on this host find in the same state, and its aftermath slows
/// the arms that follow. So it is kept out of the pass that is gated.
const NAMED_TRACED: [&str; 3] = [
    "ckpt_overhead_cas",
    "save_stall_ms_cas",
    "store_bytes_ratio_cas",
];

/// Saves that a new CAS directory needs before a save costs what it costs
/// from then on (measured here: the first four into an empty directory take
/// 2x to 15x the fifth, dense or sparse).
const CAS_WARM_STEPS: usize = 6;

pub fn run(env: &Env<'_>, dirty: Dirty) -> WorkloadReport {
    let name = match dirty {
        Dirty::Sparse => "ckpt_sparse",
        Dirty::Dense => "ckpt_dense",
    };
    let traced = env.tracer.enabled();
    let mut r = WorkloadReport::new(name, traced);
    if !env.parallel() {
        for metric in NAMED.iter().chain(&NAMED_TRACED) {
            r.skip(metric, ONE_CORE);
        }
        return r;
    }
    if !traced {
        for metric in NAMED_TRACED {
            r.skip(metric, "measured by the traced pass");
        }
    }
    // 2048 chunks of 8 KiB = 16 MiB; a quick pass takes an eighth.
    let chunks = if env.quick { 256 } else { 2048 };
    // Half the issue's steps (48 and 16), so that a pass makes some 13
    // rounds and not 7. Interleaved on the same seeds, ten runs each: sparse
    // at 48 steps spread `ckpt_overhead` by 30% and the idle overhead by 27%
    // where 24 steps spread them by 15% and 12%; dense at 16 steps (256 MiB
    // written per arm, into the host's write-back) spread `ckpt_overhead` by
    // 13-14% and `run_norm_s` by 21-22% where 8 steps spread them by 1.6-21%
    // and 15-19%, and seven rounds of it took 22-34 s of a 15 s pass
    // whenever the host was slow.
    let (steps, window_chunks) = match dirty {
        Dirty::Sparse => (env.steps(24), chunks * 5 / 100),
        Dirty::Dense => (env.steps(8), chunks),
    };
    let cfg = RelaxCfg {
        chunks,
        steps,
        window_chunks,
        seed: env.seed_for("relax_state"),
        fail_after: None,
    };
    // The delta arm is stopped right after its last save, so that the
    // store it leaves (a base and a chain of deltas) can be restarted from.
    let stopped = RelaxCfg {
        fail_after: Some(steps),
        ..cfg.clone()
    };
    let one_step = RelaxCfg {
        steps: 1,
        ..cfg.clone()
    };
    let arms: Vec<Arm> = arms(steps)
        .into_iter()
        .filter(|a| traced || a.layout != Some(Layout::Cas))
        .collect();

    // Set-up: the sequential reference, and for every arm a directory in
    // its layout and a one-step run (pool spawn, first touch of the state
    // and of the store directory, the cold base save).
    let mut speed = Yardsticks::of(Kind::Page);
    let setup = timed_setups(&mut r, env.setup_reps(), &mut speed, || {
        let reference = layers::sparse_relax_reference(&cfg);
        for arm in &arms {
            let dir = env.scratch.fresh(&format!("warm_{}", arm.tag));
            if let Some(layout) = arm.layout {
                layers::precreate_store(&dir, layout)?;
            }
            let ran = layers::run_relax(
                Eng::Smp2,
                arm.saves,
                arm.layout.map(|_| dir.as_path()),
                &one_step,
            );
            discard(&dir);
            ran?;
        }
        Ok(reference)
    });
    let Some(reference) = setup else {
        return r;
    };

    // The CAS arm keeps one directory for the whole pass, as a long run
    // would, swept between rounds. Its first saves are the warm-up round
    // that is discarded: they time the growth of an empty directory, not
    // the store.
    let cas_dir = env.scratch.fresh("cas_store");
    if traced {
        let warm = RelaxCfg {
            steps: if env.quick { 2 } else { CAS_WARM_STEPS },
            ..cfg.clone()
        };
        let warmed = layers::precreate_store(&cas_dir, Layout::Cas)
            .and_then(|()| {
                layers::run_relax(Eng::Smp2, Saves::Full { every: 1 }, Some(&cas_dir), &warm)
            })
            .and_then(|_| layers::gc_store(&cas_dir));
        if r.attempt("warm the CAS directory", warmed).is_none() {
            return r;
        }
    }

    let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut stalls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut rounds = env.rounds(MIN_ROUNDS_OF_MANY_SAVES);
    while rounds.another() {
        for arm in rotated(&arms, rounds.index()) {
            if arm.tag == "flat" {
                speed.take();
            }
            let keeps_dir = arm.layout == Some(Layout::Cas);
            let stops = arm.tag == "delta";
            let mut samples = Vec::new();
            for _ in 0..arm.repeats {
                let dir = if keeps_dir {
                    cas_dir.clone()
                } else {
                    env.scratch.fresh(arm.tag)
                };
                let store_dir = arm.layout.map(|_| dir.as_path());
                let launch = || -> Result<layers::RelaxOutcome, String> {
                    if let Some(layout) = arm.layout.filter(|_| !keeps_dir) {
                        layers::precreate_store(&dir, layout)?;
                    }
                    let cfg = if stops { &stopped } else { &cfg };
                    let out = layers::run_relax(Eng::Smp2, arm.saves, store_dir, cfg)?;
                    for s in &out.stamps {
                        env.tracer.record(
                            "ckpt",
                            &format!("save_stall.{}", arm.tag),
                            s.enter,
                            s.exit,
                        );
                    }
                    Ok(out)
                };
                let (out, _) = env
                    .tracer
                    .time("adapt", &format!("launch.{}", arm.tag), launch);
                match out {
                    Ok(o) => {
                        r.op(o.completed != stops && o.checksum == reference, || {
                            format!("{}: result differs from the sequential reference", arm.tag)
                        });
                        if arm.layout.is_some() {
                            let saved = o.ckpt.as_ref().map_or(0, |c| c.snapshots);
                            let want = match arm.saves {
                                Saves::CountOnly => 0,
                                _ => arm.steps as u64,
                            };
                            r.ops(want, want.saturating_sub(saved), || {
                                format!("{}: {saved} of {want} saves taken", arm.tag)
                            });
                        }
                        // The save at step 0 is the cold base of the run
                        // (every chunk is new to the store): timed in
                        // set-up, not here.
                        stalls.entry(arm.tag).or_default().extend(
                            o.stamps
                                .iter()
                                .filter(|s| s.step > 0)
                                .map(|s| s.stall_s() * 1e3),
                        );
                        samples.push(o.wall_s);
                    }
                    Err(e) => r.op(false, || format!("{}: {e}", arm.tag)),
                }
                if stops {
                    // Restart from the base and the chain of deltas the
                    // stopped run left: nothing is left to compute, so this
                    // launch is what reading a chain back costs.
                    let (out, _) = env.tracer.time("adapt", "restart.chain", || {
                        layers::run_relax(Eng::Smp2, arm.saves, store_dir, &cfg)
                    });
                    let right = |o: &layers::RelaxOutcome| {
                        o.completed && o.replayed && o.checksum == reference
                    };
                    let restarted = r.attempt_if("restart from the delta chain", out, right);
                    wall.entry("restart")
                        .or_default()
                        .push(restarted.map_or(f64::NAN, |o| o.wall_s));
                }
                if keeps_dir {
                    let _ = r.attempt("sweep the CAS directory", layers::gc_store(&dir));
                } else {
                    discard(&dir);
                }
            }
            wall.entry(arm.tag).or_default().push(median(&samples));
        }
    }
    r.rounds = rounds.done;
    discard(&cas_dir);

    speed.report_run(&mut r, &wall["flat"]);
    // Each arm over the arm with no checkpoints, inside a round: the arm
    // without checkpoints is all allocation and first touch, so it slows
    // down with the host exactly when the saves do.
    for (name, tag) in [
        ("ckpt_overhead", "flat"),
        ("ckpt_overhead_idle", "idle"),
        ("ckpt_overhead_delta", "delta"),
        ("restart_overhead_chain", "restart"),
        ("ckpt_overhead_cas", "cas"),
    ] {
        if let Some(samples) = wall.get(tag) {
            r.named_value(name, per_round_ratio(samples, &wall["none"]));
        }
    }
    for tag in ["flat", "delta", "cas"] {
        if let Some(samples) = stalls.get(tag) {
            r.named_median(&format!("save_stall_ms_{tag}"), samples);
        }
    }

    if traced {
        layer_metrics(env, &mut r, &cfg, &stalls);
    }
    r
}

/// The per-layer pass: the store driven directly with the records the
/// application saves, and one save re-enacted stage by stage.
fn layer_metrics(
    env: &Env<'_>,
    r: &mut WorkloadReport,
    cfg: &RelaxCfg,
    stalls: &BTreeMap<&str, Vec<f64>>,
) {
    let tracer = env.tracer;
    for (tag, samples) in stalls
        .iter()
        .filter(|(tag, _)| !matches!(**tag, "none" | "idle"))
    {
        r.layer_value(
            &format!("ckpt.save_stall_ms_p90.{tag}"),
            percentile(samples, 90.0),
        );
    }

    let dense = cfg.window_chunks == cfg.chunks;
    let steady_saves = if dense { 4 } else { FULL_EVERY };
    let mut scans = Vec::new();
    let mut ranges_seen = Vec::new();
    let mut dirty_bytes = Vec::new();
    let mut final_sums = Vec::new();
    for (tag, layout) in [
        ("flat", Layout::Flat),
        ("delta", Layout::Flat),
        ("cas", Layout::Cas),
    ] {
        let dir = env.scratch.fresh(&format!("direct_{tag}"));
        let Some(mut store) = r.attempt("open store", Store::open(&dir, layout, true)) else {
            continue;
        };
        let state = State::new(cfg);
        state.rewrite(0);
        if r.attempt("cold save", store.put_full(&state, 1)).is_none() {
            continue;
        }
        state.clear_dirty();
        let mut record = Vec::new();
        let _ = r.attempt("read back", store.get(&mut record));

        let (mut puts, mut encodes, mut digests) = (Vec::new(), Vec::new(), Vec::new());
        let (mut stored, mut touched) = (Vec::new(), Vec::new());
        let (mut written, mut deduped, mut digested) = (Vec::new(), Vec::new(), Vec::new());
        for step in 1..=steady_saves {
            state.rewrite(step);
            let before = listing(&dir);
            let bytes_before: u64 = before.iter().map(|(_, len, _)| len).sum();
            let count = step as u64 + 1;
            let (put, _) = tracer.time("ckpt", &format!("save.reenact.{tag}"), || {
                let (ranges, scan_s) = tracer.time("core", "dirty_scan", || {
                    let ranges = state.dirty_ranges();
                    state.clear_dirty();
                    ranges
                });
                scans.push(scan_s * 1e6);
                ranges_seen.push(ranges.len() as f64);
                dirty_bytes.push(ranges.iter().map(|r| r.len()).sum::<usize>() as f64);
                let (put, put_s) = tracer.time("ckpt", &format!("store_put.{tag}"), || {
                    if tag == "delta" {
                        store.put_delta(&state, &ranges, count, 1, step as u32)
                    } else {
                        store.put_full(&state, count)
                    }
                });
                puts.push(put_s * 1e3);
                put
            });
            let Some(put) = r.attempt("direct save", put) else {
                break;
            };
            let after = listing(&dir);
            touched.push(after.difference(&before).count() as f64);
            // What a save adds under the store directory: the record for
            // flat (it replaces the previous one), the delta file, or the
            // novel objects and manifest of a CAS.
            stored.push(match tag {
                "flat" => put.record_bytes as f64,
                _ => dir_bytes(&dir).saturating_sub(bytes_before) as f64,
            });
            written.push(put.chunks_written as f64);
            deduped.push(put.chunks_deduped as f64);

            // Sub-costs of the put, re-enacted on the same state: the
            // encoder alone, and (CAS) the digests alone.
            let (len, encode_s) = tracer.time("ckpt", "encode_crc", || {
                layers::encode_discarding(&state, count)
            });
            if r.attempt("encode", len).is_some() {
                encodes.push(encode_s * 1e3);
            }
            if tag == "cas" {
                let (n, digest_s) =
                    tracer.time("ckpt", "digest", || layers::digest_chunks(&record));
                digests.push(digest_s * 1e3);
                digested.push(n as f64);
            }
        }

        let (got, get_s) = tracer.time("ckpt", &format!("store_get.{tag}"), || {
            store.get(&mut record)
        });
        let got = got.and_then(|_| layers::record_state_checksum(&record, &State::new(cfg)));
        let right = |restored: &u64| *restored == state.checksum();
        if let Some(restored) = r.attempt_if("restore", got, right) {
            let get_name = if tag == "delta" { "delta_chain" } else { tag };
            r.layer_value(&format!("ckpt.store_get_ms.{get_name}"), get_s * 1e3);
            final_sums.push(restored);
        }

        r.layer_median(&format!("ckpt.store_put_ms.{tag}"), &puts);
        r.layer_value(
            &format!("ckpt.store_put_ms_p90.{tag}"),
            percentile(&puts, 90.0),
        );
        r.layer_median(&format!("ckpt.bytes_stored_per_save.{tag}"), &stored);
        if tag == "cas" {
            // An exact count: it depends on the records, not on the machine.
            let ratios: Vec<f64> = stored
                .iter()
                .map(|b| b / cfg.state_bytes() as f64)
                .collect();
            r.named_median("store_bytes_ratio_cas", &ratios);
        }
        if tag != "delta" {
            r.layer_median(&format!("ckpt.files_touched_per_save.{tag}"), &touched);
        }
        if tag == "flat" {
            r.layer_median("ckpt.encode_crc_ms", &encodes);
        }
        if tag == "cas" {
            r.layer_median("ckpt.digest_ms", &digests);
            r.layer_median("ckpt.chunks_written_per_save", &written);
            r.layer_median("ckpt.chunks_deduped_per_save", &deduped);
            r.layer_value(
                "ckpt.digest_useful_ratio",
                median(&dirty_bytes) / CHUNK_BYTES as f64 / median(&digested),
            );
            let (swept, gc_s) = tracer.time("ckpt", "gc", || store.gc());
            if let Some((objects, _)) = r.attempt("gc", swept) {
                r.layer_value("ckpt.gc_ms", gc_s * 1e3);
                r.layer_value("ckpt.gc_objects_swept", objects as f64);
            }
        }
        // The stages the hook runs on the master: find the dirty chunks,
        // then put (which encodes, checksums, digests and writes). Near 1
        // means the stall is the store's; far from 1 means the hook hides
        // work (or waits) that no stage accounts for.
        let stall = stalls.get(tag).map_or(f64::NAN, |s| median(s));
        r.layer_value(
            &format!("ckpt.budget_coverage.{tag}"),
            (median(&scans) / 1e3 + median(&puts)) / stall,
        );
        discard(&dir);
    }
    r.op(final_sums.windows(2).all(|w| w[0] == w[1]), || {
        "flat, delta-chain and CAS restores differ".into()
    });
    r.layer_median("core.dirty_scan_us", &scans);
    r.layer_median("core.dirty_ranges", &ranges_seen);
    r.layer_median("core.dirty_bytes", &dirty_bytes);

    let mut safepoint = Vec::new();
    for _ in 0..if env.quick { 3 } else { 9 } {
        let dir = env.scratch.fresh("safepoint");
        let (v, _) = tracer.time("core", "safepoint", || {
            layers::probe_safepoint_s(Eng::Smp2, &dir, 20_000)
        });
        safepoint.extend(r.attempt("safe-point probe", v).map(|s| s * 1e9));
        discard(&dir);
    }
    r.layer_median("core.safepoint_ns", &safepoint);
}
