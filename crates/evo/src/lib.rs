//! # ppar-evo — evolutionary computation with pluggable parallelisation
//!
//! A compact genetic-algorithm framework in the mould of the paper's
//! reference \[20\] (*Pluggable Parallelization of Evolutionary Algorithms
//! Applied to the Optimization of Biological Processes*): the evolutionary
//! loop is sequential base code; plans deploy it with parallel fitness
//! evaluation and breeding (shared memory) or as an **island model**
//! (distributed: the population partitions into per-element islands, with
//! the final population collected at the root).
//!
//! All randomness derives from `(seed, generation, slot)` counters, so every
//! deployment — sequential, team, islands — evolves *bit-identically* within
//! an island structure, and checkpoint/restart resumes exactly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;

/// Configuration of one GA run.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Individuals in the (global) population.
    pub pop_size: usize,
    /// Genes per individual.
    pub genome_len: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Mutation step scale.
    pub mutation_step: f64,
    /// Master seed.
    pub seed: u64,
    /// Islands: selection is confined to `pop_size / islands` blocks in
    /// *every* mode, so island runs stay comparable across deployments.
    pub islands: usize,
    /// Crash after this generation (checkpoint experiments).
    pub fail_after: Option<usize>,
}

impl GaConfig {
    /// Reasonable defaults.
    pub fn new(pop_size: usize, genome_len: usize, generations: usize) -> GaConfig {
        GaConfig {
            pop_size,
            genome_len,
            generations,
            tournament: 3,
            mutation_rate: 0.05,
            mutation_step: 0.3,
            seed: 0xE70A_55ED_1234_9876,
            islands: 1,
            fail_after: None,
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) as f64) / (u64::MAX as f64)
}

/// Deterministic RNG stream for `(seed, generation, slot, stream-tag)`.
fn stream(seed: u64, generation: usize, slot: usize, tag: u64) -> u64 {
    seed ^ (generation as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (slot as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ tag.wrapping_mul(0x8EBC_6AF0_9C88_C6E3)
}

/// The fitness function: negated Rastrigin (maximise; optimum 0 at origin).
pub fn fitness(genome: &[f64]) -> f64 {
    let a = 10.0;
    let sum: f64 = genome
        .iter()
        .map(|&x| x * x - a * (2.0 * std::f64::consts::PI * x).cos() + a)
        .sum();
    -sum
}

/// Result of a GA run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// Best fitness in the final population.
    pub best: f64,
    /// Mean fitness in the final population.
    pub mean: f64,
    /// Generations completed.
    pub generations_done: usize,
}

/// The GA base code: announce population/fitness/scratch, evolve with
/// work-shareable loops, expose safe points per generation.
pub fn ga_pluggable(ctx: &Ctx, cfg: &GaConfig) -> GaResult {
    let genes = cfg.pop_size * cfg.genome_len;
    let pop = ctx.alloc_vec("population", genes, 0.0f64);
    let next = ctx.alloc_vec("next_population", genes, 0.0f64);
    let fit = ctx.alloc_vec("fitness", cfg.pop_size, f64::NEG_INFINITY);
    let gen_done = ctx.alloc_value("generation", 0u64);

    let island_size = (cfg.pop_size / cfg.islands.max(1)).max(1);

    {
        let (pop, cfg) = (pop.clone(), cfg.clone());
        ctx.call("init_population", move |_| {
            for i in 0..cfg.pop_size {
                let mut rng = stream(cfg.seed, 0, i, 0xA11);
                for gene in 0..cfg.genome_len {
                    pop.set(i * cfg.genome_len + gene, unit(&mut rng) * 10.24 - 5.12);
                }
            }
        });
    }

    {
        let (pop, next, fit, gen_done, cfg) = (
            pop.clone(),
            next.clone(),
            fit.clone(),
            gen_done.clone(),
            cfg.clone(),
        );
        ctx.region("evolve", move |ctx| {
            let start_gen = gen_done.get() as usize;
            let mut stop = false;
            for generation in start_gen..cfg.generations {
                if stop {
                    break;
                }
                // Parallel fitness evaluation.
                let (pop2, fit2, cfg2) = (pop.clone(), fit.clone(), cfg.clone());
                ctx.call("evaluate", move |ctx| {
                    ctx.each("eval_loop", 0..cfg2.pop_size, |_, i| {
                        let base = i * cfg2.genome_len;
                        let genome: Vec<f64> =
                            (0..cfg2.genome_len).map(|g| pop2.get(base + g)).collect();
                        fit2.set(i, fitness(&genome));
                    });
                });
                // Parallel breeding into the scratch population.
                let (pop3, next3, fit3, cfg3) =
                    (pop.clone(), next.clone(), fit.clone(), cfg.clone());
                ctx.call("breed", move |ctx| {
                    ctx.each("breed_loop", 0..cfg3.pop_size, |_, i| {
                        let island = i / island_size;
                        let lo = island * island_size;
                        let hi = (lo + island_size).min(cfg3.pop_size);
                        let mut rng = stream(cfg3.seed, generation + 1, i, 0xB4EE);
                        let pick = |rng: &mut u64| {
                            let mut best = lo + (splitmix(rng) as usize) % (hi - lo);
                            for _ in 1..cfg3.tournament {
                                let c = lo + (splitmix(rng) as usize) % (hi - lo);
                                if fit3.get(c) > fit3.get(best) {
                                    best = c;
                                }
                            }
                            best
                        };
                        let pa = pick(&mut rng);
                        let pb = pick(&mut rng);
                        let cut = (splitmix(&mut rng) as usize) % cfg3.genome_len;
                        for gene in 0..cfg3.genome_len {
                            let parent = if gene < cut { pa } else { pb };
                            let mut v = pop3.get(parent * cfg3.genome_len + gene);
                            if unit(&mut rng) < cfg3.mutation_rate {
                                v += (unit(&mut rng) - 0.5) * 2.0 * cfg3.mutation_step;
                            }
                            next3.set(i * cfg3.genome_len + gene, v);
                        }
                    });
                });
                // Commit: next -> pop (work-shared copy).
                let (pop4, next4, cfg4) = (pop.clone(), next.clone(), cfg.clone());
                ctx.call("commit", move |ctx| {
                    ctx.each("commit_loop", 0..cfg4.pop_size, |_, i| {
                        let base = i * cfg4.genome_len;
                        for gene in 0..cfg4.genome_len {
                            pop4.set(base + gene, next4.get(base + gene));
                        }
                    });
                });
                // Safe point per generation: checkpoints and adaptations.
                ctx.point("generation_end");
                if ctx.is_master() && ctx.is_root() {
                    gen_done.set((generation + 1) as u64);
                }
                if Some(generation + 1) == cfg.fail_after {
                    stop = true;
                }
            }
        });
    }

    if cfg.fail_after.is_none() {
        ctx.point("collect");
    }

    let mut best = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for i in 0..cfg.pop_size {
        let base = i * cfg.genome_len;
        let genome: Vec<f64> = (0..cfg.genome_len).map(|g| pop.get(base + g)).collect();
        let f = fitness(&genome);
        best = best.max(f);
        sum += f;
    }
    GaResult {
        best,
        mean: sum / cfg.pop_size as f64,
        generations_done: gen_done.get() as usize,
    }
}

/// Shared-memory plan: the evolutionary loop is a parallel method; the three
/// inner loops work-share.
pub fn plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "evolve".into(),
        })
        .plug(Plug::For {
            loop_name: "eval_loop".into(),
            schedule: Schedule::Block,
        })
        .plug(Plug::For {
            loop_name: "breed_loop".into(),
            schedule: Schedule::Block,
        })
        .plug(Plug::For {
            loop_name: "commit_loop".into(),
            schedule: Schedule::Block,
        })
}

/// Distributed island plan: population/fitness/scratch partition by blocks
/// (one island per element when `islands == nranks`); the final population
/// is collected at the root.
pub fn plan_islands() -> Plan {
    Plan::new()
        .plug(Plug::Replicate { class: "Ga".into() })
        .plug(Plug::Field {
            field: "population".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::Field {
            field: "next_population".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::Field {
            field: "fitness".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::DistFor {
            loop_name: "eval_loop".into(),
            field: "fitness".into(),
        })
        .plug(Plug::DistFor {
            loop_name: "breed_loop".into(),
            field: "fitness".into(),
        })
        .plug(Plug::DistFor {
            loop_name: "commit_loop".into(),
            field: "fitness".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "population".into(),
            action: UpdateAction::Gather,
        })
}

/// Checkpoint module: population + generation counter are the safe data;
/// one safe point per generation; the heavy phases replay-skip.
pub fn plan_ckpt(every: usize) -> Plan {
    Plan::new()
        .plug(Plug::SafeData {
            field: "population".into(),
        })
        .plug(Plug::SafeData {
            field: "generation".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["generation_end".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "evaluate".into(),
        })
        .plug(Plug::Ignorable {
            method: "breed".into(),
        })
        .plug(Plug::Ignorable {
            method: "commit".into(),
        })
        .plug(Plug::Ignorable {
            method: "init_population".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_adapt::{launch, AppStatus, Deploy};
    use ppar_core::run_sequential;
    use ppar_core::runtime::run_smp;
    use ppar_dsm::{run_spmd_plain, SpmdConfig};
    use std::sync::Arc;

    fn cfg() -> GaConfig {
        GaConfig::new(64, 8, 12)
    }

    #[test]
    fn fitness_peaks_at_origin() {
        assert_eq!(fitness(&[0.0; 8]), 0.0);
        assert!(fitness(&[1.0; 8]) < 0.0);
    }

    #[test]
    fn evolution_improves_fitness() {
        let short = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            ga_pluggable(ctx, &GaConfig::new(64, 8, 1))
        });
        let long = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            ga_pluggable(ctx, &GaConfig::new(64, 8, 40))
        });
        assert!(
            long.best > short.best,
            "40 generations ({}) must beat 1 ({})",
            long.best,
            short.best
        );
    }

    #[test]
    fn smp_matches_seq_bitwise() {
        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            ga_pluggable(ctx, &cfg())
        });
        for threads in [2, 4] {
            let got = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                ga_pluggable(ctx, &cfg())
            });
            assert_eq!(got.best, reference.best, "threads={threads}");
            assert_eq!(got.mean, reference.mean, "threads={threads}");
        }
    }

    #[test]
    fn islands_match_seq_with_same_island_geometry() {
        let mut c = cfg();
        c.islands = 4;
        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            ga_pluggable(ctx, &c)
        });
        let results = run_spmd_plain(&SpmdConfig::instant(4), Arc::new(plan_islands()), |ctx| {
            ga_pluggable(ctx, &c)
        });
        assert_eq!(results[0].best, reference.best);
        assert_eq!(results[0].mean, reference.mean);
    }

    #[test]
    fn checkpoint_restart_resumes_evolution() {
        let dir = std::env::temp_dir().join(format!("ppar_evo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let reference = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            ga_pluggable(ctx, &cfg())
        });

        // Crash after generation 7 (snapshot every 4 -> snapshot at 4).
        let plan = Plan::new().merge(plan_ckpt(4));
        let report = launch(&Deploy::Seq, plan.clone(), Some(&dir), None, |ctx| {
            let mut c = cfg();
            c.fail_after = Some(7);
            (AppStatus::Crashed, ga_pluggable(ctx, &c))
        })
        .unwrap();
        assert_eq!(report.stats.unwrap().snapshots_taken, 1);

        // Restart: replays to generation 4, resumes (the generation counter
        // is safe data, so the loop continues from the restored state) and
        // matches the uncrashed run exactly.
        let report = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
            (AppStatus::Completed, ga_pluggable(ctx, &cfg()))
        })
        .unwrap();
        assert!(report.replayed);
        let result = &report.results[0].1;
        assert_eq!(result.best, reference.best);
        assert_eq!(result.mean, reference.mean);
        assert_eq!(result.generations_done, 12);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
