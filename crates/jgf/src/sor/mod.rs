//! JGF Section 2 SOR: red-black successive over-relaxation.
//!
//! "This benchmark is a typical scientific application, where a five-point
//! stencil is successively applied to a matrix" (§V). It is the workload of
//! every figure in the paper's evaluation. Three families live here:
//!
//! * [`seq`](self::sor_seq) — the plain sequential reference (the paper's
//!   "original" curve);
//! * [`pluggable`] — the base code written once against a
//!   [`ppar_core::ctx::Ctx`], plus the plan modules for sequential /
//!   shared-memory / distributed deployment and checkpointing;
//! * [`baseline`] — hand-written thread and message-passing versions, with
//!   and without *invasively* inserted checkpointing (the paper's "invasive"
//!   curve).
//!
//! The update is the classic red-black Gauss-Seidel SOR: cells with
//! `(i + j) % 2 == color` are relaxed from their four neighbours (all of the
//! opposite colour), so row-parallel sweeps write disjoint cells and read
//! only cells no one writes in the same sweep.

pub mod baseline;
pub mod pluggable;

use std::cell::Cell;

use ppar_core::shared::SharedGrid;

/// Parameters of one SOR run.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Grid side (N×N).
    pub n: usize,
    /// Relaxation iterations (each = red sweep + black sweep).
    pub iterations: usize,
    /// Over-relaxation factor (JGF uses 1.25).
    pub omega: f64,
    /// Seed for the deterministic initial grid.
    pub seed: u64,
    /// Simulate a resource failure after this iteration (the run returns
    /// early, leaving the run marker set).
    pub fail_after: Option<usize>,
    /// Record per-iteration wall times (Fig. 6).
    pub record_iter_times: bool,
}

impl SorParams {
    /// JGF-ish defaults at a given size.
    pub fn new(n: usize, iterations: usize) -> SorParams {
        SorParams {
            n,
            iterations,
            omega: 1.25,
            seed: 0x5eed_50f2,
            fail_after: None,
            record_iter_times: false,
        }
    }
}

/// Result of one SOR run.
#[derive(Debug, Clone)]
pub struct SorResult {
    /// Sum of all grid cells (the JGF validation checksum).
    pub checksum: f64,
    /// Iterations actually executed (less than requested on a simulated
    /// failure).
    pub iterations_done: usize,
    /// Per-iteration wall times when requested.
    pub iter_times: Vec<f64>,
}

/// Deterministic initial grid: a cheap splitmix-style hash of the cell
/// coordinates, identical on every rank and every mode.
pub fn init_value(seed: u64, i: usize, j: usize) -> f64 {
    let mut x = seed ^ ((i as u64) << 32) ^ (j as u64);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x as f64) / (u64::MAX as f64)
}

/// Fill a shared grid with the deterministic initial state, a row at a time.
pub fn fill_grid(g: &SharedGrid<f64>, seed: u64) {
    for i in 0..g.rows() {
        for (j, cell) in g.row_cells(i).iter().enumerate() {
            cell.set(init_value(seed, i, j));
        }
        g.mark_row_written(i, 0..g.cols());
    }
}

/// The interior rows `1..n-1` every sweep relaxes; empty (not an underflow)
/// for grids too small to have an interior.
pub fn interior_rows(n: usize) -> std::ops::Range<usize> {
    1..n.saturating_sub(1).max(1)
}

/// Relax every cell of row `i` with parity `color`, reading the four
/// neighbours, one element at a time. `get`/`set` go through closures, so
/// any storage can sit behind it. It defines the arithmetic:
/// [`relax_grid_row`] is tested bit for bit against it.
#[inline]
pub fn relax_row(
    n: usize,
    i: usize,
    color: usize,
    omega: f64,
    get: &impl Fn(usize, usize) -> f64,
    set: &impl Fn(usize, usize, f64),
) {
    let jstart = 1 + ((i + color + 1) % 2);
    let mut j = jstart;
    while j < n - 1 {
        let stencil = get(i - 1, j) + get(i + 1, j) + get(i, j - 1) + get(i, j + 1);
        let old = get(i, j);
        set(i, j, omega * 0.25 * stencil + (1.0 - omega) * old);
        j += 2;
    }
}

/// [`relax_row`] on a shared grid in the form of JGF's own kernel: the three
/// rows `Gim1`/`Gi`/`Gip1` taken once as cell views, the two constants
/// hoisted, and the write accounting paid once for the row instead of once
/// per cell. Bit-for-bit the same values as the element-wise form (the
/// products associate the same way). Every grid variant of SOR, pluggable
/// or hand-written, relaxes its rows through this one function, with the
/// write tracker on or off: the declared span is what the tracker checks.
/// `i` must be an interior row.
#[inline]
pub fn relax_grid_row(g: &SharedGrid<f64>, i: usize, color: usize, omega: f64) {
    assert!(
        i >= 1 && i + 1 < g.rows(),
        "row {i} is not an interior row of a grid with {} rows",
        g.rows()
    );
    let n = g.cols();
    if n < 3 {
        return;
    }
    let (gim1, gi, gip1) = (g.row_cells(i - 1), g.row_cells(i), g.row_cells(i + 1));
    let (omega_over_four, one_minus_omega) = (omega * 0.25, 1.0 - omega);
    let jstart = 1 + ((i + color + 1) % 2);
    // `[west, centre, east]` around every cell of this colour, zipped with
    // the cells above and below: no index, so no bounds check per cell.
    let centres = gi[jstart - 1..].windows(3).step_by(2);
    let norths = gim1[jstart..].iter().step_by(2);
    let souths = gip1[jstart..].iter().step_by(2);
    for ((w, north), south) in centres.zip(norths).zip(souths) {
        let stencil = north.get() + south.get() + w[0].get() + w[2].get();
        w[1].set(omega_over_four * stencil + one_minus_omega * w[1].get());
    }
    // First to last cell stored: the same dirty chunks `set` would mark, and
    // under tracking a span no other worker's row can overlap.
    let stored = (n - 1 - jstart).div_ceil(2);
    if stored > 0 {
        g.mark_row_written(i, jstart..jstart + 2 * stored - 1);
    }
}

/// Plain sequential SOR on an owned matrix: the reference implementation
/// every other variant is validated against. Self-contained on purpose (it
/// shares no kernel code with the variants it checks) and in the same
/// three-row form as [`relax_grid_row`], so a ratio against it measures the
/// runtime and not two different kernels. A grid with `n < 3` has no
/// interior and keeps its initial values.
pub fn sor_seq(p: &SorParams) -> SorResult {
    let n = p.n;
    let mut g = vec![0.0f64; n * n];
    for (i, row) in g.chunks_exact_mut(n.max(1)).enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = init_value(p.seed, i, j);
        }
    }
    let (omega_over_four, one_minus_omega) = (p.omega * 0.25, 1.0 - p.omega);
    let mut done = 0;
    for it in 0..p.iterations {
        for color in 0..2 {
            for i in 1..n.saturating_sub(1) {
                let (above, rest) = g.split_at_mut(i * n);
                let (gi, below) = rest.split_at_mut(n);
                let (gim1, gip1) = (&above[(i - 1) * n..], &below[..n]);
                let gi = Cell::from_mut(gi).as_slice_of_cells();
                let jstart = 1 + ((i + color + 1) % 2);
                let centres = gi[jstart - 1..].windows(3).step_by(2);
                let norths = gim1[jstart..].iter().step_by(2);
                let souths = gip1[jstart..].iter().step_by(2);
                for ((w, north), south) in centres.zip(norths).zip(souths) {
                    let stencil = north + south + w[0].get() + w[2].get();
                    w[1].set(omega_over_four * stencil + one_minus_omega * w[1].get());
                }
            }
        }
        done = it + 1;
        if Some(done) == p.fail_after {
            break;
        }
    }
    SorResult {
        checksum: g.iter().sum(),
        iterations_done: done,
        iter_times: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic_and_spread() {
        assert_eq!(init_value(1, 2, 3), init_value(1, 2, 3));
        assert_ne!(init_value(1, 2, 3), init_value(1, 3, 2));
        assert_ne!(init_value(1, 2, 3), init_value(2, 2, 3));
        for i in 0..10 {
            for j in 0..10 {
                let v = init_value(42, i, j);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn seq_sor_converges_toward_smoothness() {
        // SOR smooths the random field: the discrete Laplacian magnitude
        // must shrink.
        let rough = sor_seq(&SorParams::new(32, 0));
        let smooth = sor_seq(&SorParams::new(32, 50));
        // Checksums differ but remain finite and bounded.
        assert!(rough.checksum.is_finite());
        assert!(smooth.checksum.is_finite());
        assert_ne!(rough.checksum, smooth.checksum);
    }

    #[test]
    fn seq_sor_is_deterministic() {
        let a = sor_seq(&SorParams::new(24, 10));
        let b = sor_seq(&SorParams::new(24, 10));
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn seq_checksum_bits_are_pinned() {
        // Recorded from the element-indexed `sor_seq` (PR 11) before it was
        // rewritten in three-row form: the oracle itself must not drift.
        for (n, iterations, bits) in [
            (33, 8, 0x4081_16d9_8103_b64c_u64),
            (64, 10, 0x40a0_160c_1c0a_bff6),
            (257, 3, 0x40e0_3808_c1e9_aa24),
        ] {
            let got = sor_seq(&SorParams::new(n, iterations)).checksum.to_bits();
            assert_eq!(got, bits, "n={n} iterations={iterations}: {got:#018x}");
        }
    }

    #[test]
    fn grids_without_interior_keep_their_initial_values() {
        for n in 0..3 {
            let p = SorParams::new(n, 4);
            let initial: f64 = (0..n * n).map(|k| init_value(p.seed, k / n, k % n)).sum();
            let r = sor_seq(&p);
            assert_eq!(r.checksum.to_bits(), initial.to_bits(), "n={n}");
            assert_eq!(r.iterations_done, 4);
            assert!(interior_rows(n).is_empty());
        }
        assert_eq!(interior_rows(3), 1..2);
    }

    #[test]
    fn fail_after_stops_early() {
        let r = sor_seq(&SorParams {
            fail_after: Some(3),
            ..SorParams::new(16, 10)
        });
        assert_eq!(r.iterations_done, 3);
    }

    #[test]
    fn relax_row_matches_inline_update() {
        let n = 8;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = init_value(7, i, j);
            }
        }
        let mut b = a.clone();

        // inline (reference)
        let omega = 1.25;
        let i = 3;
        let color = 1;
        let jstart = 1 + ((i + color + 1) % 2);
        let mut j = jstart;
        while j < n - 1 {
            let st = a[(i - 1) * n + j] + a[(i + 1) * n + j] + a[i * n + j - 1] + a[i * n + j + 1];
            a[i * n + j] = omega * 0.25 * st + (1.0 - omega) * a[i * n + j];
            j += 2;
        }

        // through relax_row
        let b_cell = std::cell::RefCell::new(&mut b);
        relax_row(
            n,
            i,
            color,
            omega,
            &|r, c| b_cell.borrow()[r * n + c],
            &|r, c, v| {
                b_cell.borrow_mut()[r * n + c] = v;
            },
        );
        assert_eq!(a, b);
    }
}
