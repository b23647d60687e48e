//! JGF Section 3 MonteCarlo (reduced): geometric-Brownian price paths.
//!
//! Each task simulates one price path from a per-path deterministic seed and
//! stores its terminal value into a partitioned result vector; the mean is
//! computed from the gathered vector at the root, so the result is bitwise
//! identical in every execution mode (no floating-point reduction-order
//! sensitivity).

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{Plan, Plug, UpdateAction};
use ppar_core::schedule::Schedule;

/// Parameters of one MonteCarlo run.
#[derive(Debug, Clone)]
pub struct McParams {
    /// Number of price paths.
    pub paths: usize,
    /// Time steps per path.
    pub steps: usize,
    /// Base seed (per-path seeds derive from it).
    pub seed: u64,
    /// Drift.
    pub mu: f64,
    /// Volatility.
    pub sigma: f64,
}

impl McParams {
    /// Defaults.
    pub fn new(paths: usize) -> McParams {
        McParams {
            paths,
            steps: 100,
            seed: 0x3C4A_11FE_77AB_0001,
            mu: 0.05,
            sigma: 0.2,
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

/// Standard normal via Box-Muller on the splitmix stream.
fn gaussian(state: &mut u64) -> f64 {
    let u1 = (splitmix(state) as f64 + 1.0) / (u64::MAX as f64 + 2.0);
    let u2 = (splitmix(state) as f64 + 1.0) / (u64::MAX as f64 + 2.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Simulate one path and return its terminal price.
pub fn simulate_path(p: &McParams, path: usize) -> f64 {
    let mut state = p.seed ^ ((path as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let dt = 1.0 / p.steps as f64;
    let mut s = 100.0f64;
    for _ in 0..p.steps {
        let dw = gaussian(&mut state) * dt.sqrt();
        s *= ((p.mu - 0.5 * p.sigma * p.sigma) * dt + p.sigma * dw).exp();
    }
    s
}

/// Sequential reference: mean terminal price.
pub fn mc_seq(p: &McParams) -> f64 {
    let sum: f64 = (0..p.paths).map(|i| simulate_path(p, i)).sum();
    sum / p.paths as f64
}

/// The MonteCarlo base code.
pub fn mc_pluggable(ctx: &Ctx, p: &McParams) -> f64 {
    let results = ctx.alloc_vec("path_results", p.paths, 0.0f64);
    let r2 = results.clone();
    let params = p.clone();
    ctx.region("simulate", move |ctx| {
        let r3 = r2.clone();
        let params = params.clone();
        ctx.call("run_paths", move |ctx| {
            ctx.each("paths", 0..params.paths, |_, i| {
                r3.set(i, simulate_path(&params, i));
            });
        });
    });
    ctx.point("collect");
    results.as_slice().iter().sum::<f64>() / p.paths as f64
}

/// Shared-memory plan (dynamic schedule: path costs are uniform here but the
/// JGF original uses a pool of uneven tasks).
pub fn plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "simulate".into(),
        })
        .plug(Plug::For {
            loop_name: "paths".into(),
            schedule: Schedule::Dynamic { chunk: 16 },
        })
}

/// Distributed plan: paths partition block-wise; results gather at the root.
pub fn plan_dist() -> Plan {
    Plan::new()
        .plug(Plug::Field {
            field: "path_results".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::DistFor {
            loop_name: "paths".into(),
            field: "path_results".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "path_results".into(),
            action: UpdateAction::Gather,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::run_sequential;
    use ppar_core::runtime::run_smp;
    use ppar_dsm::{run_spmd_plain, SpmdConfig};
    use std::sync::Arc;

    fn p() -> McParams {
        McParams::new(400)
    }

    #[test]
    fn mean_price_is_plausible() {
        // E[S_T] = S0·exp(mu·T) = 100·e^0.05 ≈ 105.1; Monte-Carlo with 400
        // paths should land within a few percent.
        let mean = mc_seq(&p());
        assert!((90.0..120.0).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn paths_are_deterministic() {
        assert_eq!(simulate_path(&p(), 7), simulate_path(&p(), 7));
        assert_ne!(simulate_path(&p(), 7), simulate_path(&p(), 8));
    }

    #[test]
    fn pluggable_matches_reference_all_modes() {
        let reference = mc_seq(&p());
        let got = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            mc_pluggable(ctx, &p())
        });
        assert_eq!(got, reference);

        for threads in [2, 5] {
            let got = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                mc_pluggable(ctx, &p())
            });
            assert_eq!(got, reference, "threads={threads}");
        }

        for ranks in [2, 4] {
            let results =
                run_spmd_plain(&SpmdConfig::instant(ranks), Arc::new(plan_dist()), |ctx| {
                    mc_pluggable(ctx, &p())
                });
            assert_eq!(results[0], reference, "ranks={ranks}");
        }
    }
}
