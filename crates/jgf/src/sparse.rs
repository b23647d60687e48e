//! JGF Section 2 SparseMatMult: repeated sparse matrix-vector products.
//!
//! y += M·x iterated `iterations` times with a fixed random sparse matrix in
//! row-major compressed form. Row dot-products are independent, so the row
//! loop work-shares (SMP) or partitions (distributed, with the result vector
//! gathered at the root).

use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{Plan, Plug, UpdateAction};
use ppar_core::schedule::Schedule;

/// Parameters of one SparseMatMult run.
#[derive(Debug, Clone)]
pub struct SparseParams {
    /// Matrix dimension (N×N).
    pub n: usize,
    /// Non-zeros per row.
    pub nz_per_row: usize,
    /// Product iterations.
    pub iterations: usize,
    /// Structure/value seed.
    pub seed: u64,
}

impl SparseParams {
    /// Defaults at a given size.
    pub fn new(n: usize, iterations: usize) -> SparseParams {
        SparseParams {
            n,
            nz_per_row: 5,
            iterations,
            seed: 0x5AA5_1234_89AB_CDEF,
        }
    }
}

/// A fixed sparse matrix in CSR-like form with a constant row width.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    /// Dimension.
    pub n: usize,
    /// Column indices, `n * nz_per_row` entries.
    pub cols: Vec<usize>,
    /// Values, aligned with `cols`.
    pub vals: Vec<f64>,
    /// Non-zeros per row.
    pub nz_per_row: usize,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the deterministic sparse matrix and input vector.
pub fn build_problem(p: &SparseParams) -> (SparseMatrix, Vec<f64>) {
    let mut state = p.seed;
    let mut cols = Vec::with_capacity(p.n * p.nz_per_row);
    let mut vals = Vec::with_capacity(p.n * p.nz_per_row);
    for _row in 0..p.n {
        for _k in 0..p.nz_per_row {
            cols.push((splitmix(&mut state) as usize) % p.n);
            vals.push((splitmix(&mut state) as f64 / u64::MAX as f64) - 0.5);
        }
    }
    let x: Vec<f64> = (0..p.n)
        .map(|_| splitmix(&mut state) as f64 / u64::MAX as f64)
        .collect();
    (
        SparseMatrix {
            n: p.n,
            cols,
            vals,
            nz_per_row: p.nz_per_row,
        },
        x,
    )
}

/// Sequential reference: returns the result-vector checksum.
pub fn sparse_seq(p: &SparseParams) -> f64 {
    let (m, x) = build_problem(p);
    let mut y = vec![0.0f64; p.n];
    for _it in 0..p.iterations {
        for (row, y_row) in y.iter_mut().enumerate() {
            let mut acc = *y_row;
            let base = row * m.nz_per_row;
            for k in 0..m.nz_per_row {
                acc += m.vals[base + k] * x[m.cols[base + k]];
            }
            *y_row = acc;
        }
    }
    y.iter().sum()
}

/// The SparseMatMult base code.
pub fn sparse_pluggable(ctx: &Ctx, p: &SparseParams) -> f64 {
    let (m, x) = build_problem(p);
    let y = ctx.alloc_vec("y", p.n, 0.0f64);
    let n = p.n;
    let iterations = p.iterations;
    let y2 = y.clone();
    ctx.region("multiply", move |ctx| {
        for _it in 0..iterations {
            let (y3, m, x) = (y2.clone(), m.clone(), x.clone());
            ctx.call("spmv", move |ctx| {
                ctx.each("rows", 0..n, |_, row| {
                    let mut acc = y3.get(row);
                    let base = row * m.nz_per_row;
                    for k in 0..m.nz_per_row {
                        acc += m.vals[base + k] * x[m.cols[base + k]];
                    }
                    y3.set(row, acc);
                });
            });
            ctx.point("iter_end");
        }
    });
    ctx.point("collect");
    y.as_slice().iter().sum()
}

/// Shared-memory plan.
pub fn plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "multiply".into(),
        })
        .plug(Plug::For {
            loop_name: "rows".into(),
            schedule: Schedule::Block,
        })
}

/// Distributed plan: `y` partitions by rows; the row loop aligns with it;
/// the result is collected at the root. (`x` and the matrix replicate by
/// construction: every element builds them identically.)
pub fn plan_dist() -> Plan {
    Plan::new()
        .plug(Plug::Field {
            field: "y".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::DistFor {
            loop_name: "rows".into(),
            field: "y".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "y".into(),
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

    fn p() -> SparseParams {
        SparseParams::new(200, 5)
    }

    #[test]
    fn seq_reference_is_deterministic() {
        assert_eq!(sparse_seq(&p()), sparse_seq(&p()));
    }

    #[test]
    fn pluggable_matches_reference_all_modes() {
        let reference = sparse_seq(&p());
        let got = run_sequential(Arc::new(Plan::new()), None, None, |ctx| {
            sparse_pluggable(ctx, &p())
        });
        assert_eq!(got, reference);

        for threads in [2, 4] {
            let got = run_smp(Arc::new(plan_smp()), threads, None, None, |ctx| {
                sparse_pluggable(ctx, &p())
            });
            assert_eq!(got, reference, "threads={threads}");
        }

        for ranks in [2, 3] {
            let results =
                run_spmd_plain(&SpmdConfig::instant(ranks), Arc::new(plan_dist()), |ctx| {
                    sparse_pluggable(ctx, &p())
                });
            assert_eq!(results[0], reference, "ranks={ranks}");
        }
    }

    #[test]
    fn plans_validate() {
        assert!(plan_smp().validate().is_empty());
        assert!(plan_dist().validate().is_empty());
    }
}
