//! JGF Section 2 Series: Fourier coefficients by trapezoid integration.
//!
//! This is the kernel of the paper's Fig. 1, which illustrates the
//! distributed-memory template syntax. The base code computes the first N
//! Fourier coefficient pairs of f(x) = (x+1)^x on \[0,2\]; the distributed
//! plan is a literal transcription of the figure:
//!
//! ```text
//! // Partitioned<TestArray,BLOCK>
//! // ScatterBefore<Do(),TestArray>
//! // GatherAfter<Do(),TestArray>
//! ```
//!
//! `TestArray` is stored coefficient-major (N rows × 2 columns) so the
//! distribution index is the coefficient, as in the paper.

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{Plan, Plug, PointSet};
use ppar_core::schedule::Schedule;

/// Parameters of one Series run.
#[derive(Debug, Clone)]
pub struct SeriesParams {
    /// Number of coefficient pairs.
    pub n: usize,
    /// Trapezoid integration steps.
    pub steps: usize,
}

impl SeriesParams {
    /// JGF-ish defaults.
    pub fn new(n: usize) -> SeriesParams {
        SeriesParams { n, steps: 500 }
    }
}

fn f(x: f64) -> f64 {
    (x + 1.0).powf(x)
}

/// Trapezoid integration of `f(x) * trig(omega_n * x)` over [0, 2].
/// `select`: 0 = plain f (a₀ term), 1 = cosine, 2 = sine.
pub fn trapezoid_integrate(steps: usize, omega_n: f64, select: u8) -> f64 {
    let x0 = 0.0f64;
    let x1 = 2.0f64;
    let dx = (x1 - x0) / steps as f64;
    let weigh = |x: f64| match select {
        0 => f(x),
        1 => f(x) * (omega_n * x).cos(),
        _ => f(x) * (omega_n * x).sin(),
    };
    let mut sum = 0.5 * (weigh(x0) + weigh(x1));
    let mut x = x0 + dx;
    for _ in 1..steps {
        sum += weigh(x);
        x += dx;
    }
    sum * dx
}

/// Plain sequential reference.
pub fn series_seq(p: &SeriesParams) -> Vec<(f64, f64)> {
    let omega = std::f64::consts::PI;
    (0..p.n)
        .map(|i| {
            if i == 0 {
                (trapezoid_integrate(p.steps, 0.0, 0) / 2.0, 0.0)
            } else {
                let w = omega * i as f64;
                (
                    trapezoid_integrate(p.steps, w, 1),
                    trapezoid_integrate(p.steps, w, 2),
                )
            }
        })
        .collect()
}

/// The Series base code (Fig. 1's domain-specific part).
pub fn series_pluggable(ctx: &Ctx, p: &SeriesParams) -> Vec<(f64, f64)> {
    let test_array = ctx.alloc_grid("TestArray", p.n, 2, 0.0f64);
    let omega = std::f64::consts::PI;
    let steps = p.steps;
    let n = p.n;
    let ta = test_array.clone();
    // Parallel-method join point (Fig. 1's `Do()`): the smp plan forks a
    // team here; the dist plan scatters TestArray before and gathers after.
    ctx.region("Do", move |ctx| {
        ctx.each("coeff_loop", 0..n, |_, i| {
            if i == 0 {
                ta.set(0, 0, trapezoid_integrate(steps, 0.0, 0) / 2.0);
                ta.set(0, 1, 0.0);
            } else {
                let w = omega * i as f64;
                ta.set(i, 0, trapezoid_integrate(steps, w, 1));
                ta.set(i, 1, trapezoid_integrate(steps, w, 2));
            }
        });
    });
    (0..p.n)
        .map(|i| (test_array.get(i, 0), test_array.get(i, 1)))
        .collect()
}

/// Sequential plan: empty.
pub fn plan_seq() -> Plan {
    Plan::new()
}

/// Shared-memory plan: `Do` is a parallel method, the coefficient loop is
/// work-shared dynamically (coefficient costs are uneven: i=0 is cheap).
pub fn plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "Do".into(),
        })
        .plug(Plug::For {
            loop_name: "coeff_loop".into(),
            schedule: Schedule::Dynamic { chunk: 8 },
        })
}

/// Distributed plan: the paper's Fig. 1, word for word.
pub fn plan_dist() -> Plan {
    Plan::new()
        .plug(Plug::Replicate {
            class: "SeriesTest".into(),
        })
        .plug(Plug::Field {
            field: "TestArray".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::ScatterBefore {
            method: "Do".into(),
            field: "TestArray".into(),
        })
        .plug(Plug::GatherAfter {
            method: "Do".into(),
            field: "TestArray".into(),
        })
        .plug(Plug::DistFor {
            loop_name: "coeff_loop".into(),
            field: "TestArray".into(),
        })
}

/// Checkpoint module for Series: the coefficient array is the safe data;
/// (coarse-grained — Series has one big method, so the safe point sits
/// after `Do`; apps with per-iteration points get finer checkpoints).
pub fn plan_ckpt() -> Plan {
    Plan::new()
        .plug(Plug::SafeData {
            field: "TestArray".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["after_do".into()]),
            every: 1,
        })
        .plug(Plug::Ignorable {
            method: "Do".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::run_sequential;
    use ppar_core::runtime::run_smp;
    use ppar_dsm::{run_spmd_plain, SpmdConfig};
    use std::sync::Arc;

    fn close(a: &[(f64, f64)], b: &[(f64, f64)]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn coefficients_converge_and_are_plausible() {
        // Trapezoid integration must converge as steps grow, and the leading
        // coefficients of (x+1)^x on [0,2] sit in known ballparks
        // (a0/2 ≈ 2.88, b1 < 0 with |b1| ≈ 1.9).
        let coarse = series_seq(&SeriesParams { n: 3, steps: 2_000 });
        let fine = series_seq(&SeriesParams {
            n: 3,
            steps: 40_000,
        });
        for (c, f) in coarse.iter().zip(fine.iter()) {
            assert!((c.0 - f.0).abs() < 1e-4, "a diverges: {} vs {}", c.0, f.0);
            assert!((c.1 - f.1).abs() < 1e-4, "b diverges: {} vs {}", c.1, f.1);
        }
        assert!((2.7..3.0).contains(&fine[0].0), "a0/2 = {}", fine[0].0);
        assert!(fine[1].1 < -1.0, "b1 = {}", fine[1].1);
    }

    #[test]
    fn pluggable_seq_matches_reference() {
        let p = SeriesParams::new(40);
        let reference = series_seq(&p);
        let got = run_sequential(Arc::new(plan_seq()), None, None, |ctx| {
            series_pluggable(ctx, &p)
        });
        close(&got, &reference);
    }

    #[test]
    fn pluggable_smp_matches_reference() {
        let p = SeriesParams::new(40);
        let reference = series_seq(&p);
        for threads in [2, 5] {
            let got = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                series_pluggable(ctx, &p)
            });
            close(&got, &reference);
        }
    }

    #[test]
    fn pluggable_dist_matches_reference() {
        let p = SeriesParams::new(40);
        let reference = series_seq(&p);
        for ranks in [2, 3, 7] {
            let results =
                run_spmd_plain(&SpmdConfig::instant(ranks), Arc::new(plan_dist()), |ctx| {
                    series_pluggable(ctx, &p)
                });
            close(&results[0], &reference);
        }
    }

    #[test]
    fn dist_plan_validates() {
        assert!(plan_dist().validate().is_empty());
    }
}
