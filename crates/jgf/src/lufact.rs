//! JGF Section 2 LUFact: LU factorisation with partial pivoting.
//!
//! Gaussian elimination of a dense N×N matrix. Each pivot step eliminates
//! rows `k+1..n` independently, so the elimination loop work-shares across
//! the team; pivot selection and row swap are master-only sections followed
//! by a barrier — a nice exercise of the `Master` + `Barrier` plugs.

use ppar_core::ctx::Ctx;
use ppar_core::plan::{Plan, Plug};
use ppar_core::schedule::Schedule;

/// Parameters of one LUFact run.
#[derive(Debug, Clone)]
pub struct LuParams {
    /// Matrix dimension.
    pub n: usize,
    /// Matrix seed.
    pub seed: u64,
}

impl LuParams {
    /// Defaults at a given size.
    pub fn new(n: usize) -> LuParams {
        LuParams {
            n,
            seed: 0x10FA_C700_0000_0001,
        }
    }
}

fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) as f64) / (u64::MAX as f64) - 0.5
}

/// Deterministic diagonally-dominant test matrix (well conditioned, so the
/// factorisation is numerically tame and bitwise reproducible).
pub fn build_matrix(p: &LuParams) -> Vec<f64> {
    let n = p.n;
    let mut state = p.seed;
    let mut a = vec![0.0f64; n * n];
    for (idx, cell) in a.iter_mut().enumerate() {
        *cell = splitmix(&mut state);
        let (i, j) = (idx / n, idx % n);
        if i == j {
            *cell += n as f64; // dominance
        }
    }
    a
}

/// Sequential reference: returns (checksum of LU-packed matrix, pivot-sign).
pub fn lu_seq(p: &LuParams) -> (f64, f64) {
    let n = p.n;
    let mut a = build_matrix(p);
    let mut sign = 1.0f64;
    for k in 0..n {
        // partial pivot
        let mut piv = k;
        for i in k + 1..n {
            if a[i * n + k].abs() > a[piv * n + k].abs() {
                piv = i;
            }
        }
        if piv != k {
            for j in 0..n {
                a.swap(k * n + j, piv * n + j);
            }
            sign = -sign;
        }
        let d = a[k * n + k];
        for i in k + 1..n {
            let f = a[i * n + k] / d;
            a[i * n + k] = f;
            for j in k + 1..n {
                a[i * n + j] -= f * a[k * n + j];
            }
        }
    }
    (a.iter().sum(), sign)
}

/// The LUFact base code.
pub fn lu_pluggable(ctx: &Ctx, p: &LuParams) -> (f64, f64) {
    let n = p.n;
    let a = ctx.alloc_grid("A", n, n, 0.0f64);
    let sign = ctx.alloc_value("sign", 1.0f64);

    {
        let a = a.clone();
        let init = build_matrix(p);
        ctx.call("init_matrix", move |_| {
            for i in 0..n {
                a.set_row(i, &init[i * n..(i + 1) * n]);
            }
        });
    }

    {
        let a = a.clone();
        let sign = sign.clone();
        ctx.region("factorise", move |ctx| {
            for k in 0..n {
                let a2 = a.clone();
                let sign2 = sign.clone();
                // Pivot selection + swap: master-only with a barrier after,
                // so every worker sees the swapped rows.
                ctx.call("pivot", move |_| {
                    let mut piv = k;
                    for i in k + 1..n {
                        if a2.get(i, k).abs() > a2.get(piv, k).abs() {
                            piv = i;
                        }
                    }
                    if piv != k {
                        let rk = a2.row(k).to_vec();
                        let rp = a2.row(piv).to_vec();
                        a2.set_row(k, &rp);
                        a2.set_row(piv, &rk);
                        sign2.update(|s| -s);
                    }
                });
                let a3 = a.clone();
                ctx.call("eliminate", move |ctx| {
                    let d = a3.get(k, k);
                    ctx.each("elim_rows", k + 1..n, |_, i| {
                        // Row i -= f * row k over columns k+1.., on row views
                        // (row k, the pivot row, is only read in this loop).
                        let (ri, rk) = (&a3.row_cells(i)[k..], &a3.row_cells(k)[k + 1..]);
                        let f = ri[0].get() / d;
                        ri[0].set(f);
                        for (x, y) in ri[1..].iter().zip(rk) {
                            x.set(x.get() - f * y.get());
                        }
                        a3.mark_row_written(i, k..n);
                    });
                });
                ctx.point("step_end");
            }
        });
    }

    (a.flat().as_slice().iter().sum(), sign.get())
}

/// Shared-memory plan: pivoting is master-only (barrier after), elimination
/// rows work-share.
pub fn plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "factorise".into(),
        })
        .plug(Plug::Master {
            method: "pivot".into(),
        })
        .plug(Plug::Barrier {
            method: "pivot".into(),
            before: true,
            after: true,
        })
        .plug(Plug::For {
            loop_name: "elim_rows".into(),
            schedule: Schedule::Block,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::run_sequential;
    use ppar_core::runtime::run_smp;
    use std::sync::Arc;

    #[test]
    fn lu_reconstructs_matrix() {
        // Verify PA = LU on a small case by re-multiplying.
        let p = LuParams::new(24);
        let original = build_matrix(&p);
        let n = p.n;
        let mut a = original.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut piv = k;
            for i in k + 1..n {
                if a[i * n + k].abs() > a[piv * n + k].abs() {
                    piv = i;
                }
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                perm.swap(k, piv);
            }
            let d = a[k * n + k];
            for i in k + 1..n {
                let f = a[i * n + k] / d;
                a[i * n + k] = f;
                for j in k + 1..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
            }
        }
        // reconstruct row r of P·A as sum_k L[r,k] * U[k,c]
        for r in 0..n {
            for c in 0..n {
                let mut v = 0.0;
                for k in 0..=r.min(c) {
                    let l = if k == r { 1.0 } else { a[r * n + k] };
                    let u = a[k * n + c];
                    if k <= c {
                        v += l * u;
                    }
                }
                let expected = original[perm[r] * n + c];
                assert!(
                    (v - expected).abs() < 1e-8,
                    "PA!=LU at ({r},{c}): {v} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn pluggable_seq_matches_reference() {
        let p = LuParams::new(40);
        let reference = lu_seq(&p);
        let got = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            lu_pluggable(ctx, &p)
        });
        assert_eq!(got, reference);
    }

    #[test]
    fn pluggable_smp_matches_reference() {
        let p = LuParams::new(40);
        let reference = lu_seq(&p);
        for threads in [2, 4] {
            let got = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                lu_pluggable(ctx, &p)
            });
            assert_eq!(got, reference, "threads={threads}");
        }
    }
}
