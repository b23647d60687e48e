//! The row-view SOR kernel against the element-wise one it replaced: same
//! values bit for bit, same dirty chunks, same checkpoint files.
//!
//! Write tracking stays off in this binary, since it is process-global and
//! would record the twin grids' per-cell stores too; `row_views_tracked.rs`
//! runs the same kernel with the tracker on.

use proptest::prelude::*;

use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_ckpt::crc::crc32;
use ppar_core::shared::SharedGrid;
use ppar_core::state::StateCell;
use ppar_jgf::sor::pluggable::{plan_ckpt_incremental, plan_seq, sor_pluggable};
use ppar_jgf::sor::{fill_grid, relax_grid_row, relax_row, SorParams};

/// The kernel every variant ran before the views: `get`/`set` per cell.
fn relax_elementwise(g: &SharedGrid<f64>, i: usize, color: usize, omega: f64) {
    relax_row(
        g.cols(),
        i,
        color,
        omega,
        &|r, c| g.get(r, c),
        &|r, c, v| g.set(r, c, v),
    );
}

/// Two identical grids with clean dirty maps (clearing also turns per-write
/// chunk marking on, process-wide).
fn twin_grids(rows: usize, cols: usize, seed: u64) -> (SharedGrid<f64>, SharedGrid<f64>) {
    let (a, b) = (
        SharedGrid::new(rows, cols, 0.0f64),
        SharedGrid::new(rows, cols, 0.0f64),
    );
    fill_grid(&a, seed);
    fill_grid(&b, seed);
    a.clear_dirty();
    b.clear_dirty();
    (a, b)
}

fn bits(g: &SharedGrid<f64>) -> Vec<u64> {
    g.flat().as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn prop_view_kernel_matches_elementwise(
        rows in 3usize..9,
        cols in 3usize..1400,
        row_pick in 0usize..64,
        color in 0usize..2,
        omega in 0.05f64..1.95,
        seed in any::<u64>(),
    ) {
        let i = 1 + row_pick % (rows - 2);
        let (view, cell) = twin_grids(rows, cols, seed);
        relax_grid_row(&view, i, color, omega);
        relax_elementwise(&cell, i, color, omega);
        prop_assert_eq!(bits(&view), bits(&cell), "{rows}x{cols} row {i} colour {color}");
        prop_assert_eq!(
            view.flat().dirty_byte_ranges(),
            cell.flat().dirty_byte_ranges(),
            "{rows}x{cols} row {i} colour {color}"
        );
    }
}

#[test]
fn view_sweeps_leave_the_dirty_chunks_of_the_per_cell_path() {
    // 1024 columns: a row is exactly one 8 KiB chunk. The others do not
    // divide a chunk, so chunk edges fall inside rows, between the last
    // cell stored and the untouched border column.
    for cols in [1024usize, 1030, 130, 333] {
        let rows = 12;
        let (view, cell) = twin_grids(rows, cols, 7);
        for color in 0..2 {
            for i in 1..rows - 1 {
                relax_grid_row(&view, i, color, 1.25);
                relax_elementwise(&cell, i, color, 1.25);
            }
            let dirty = view.flat().dirty_byte_ranges();
            assert!(!dirty.is_empty(), "cols={cols}");
            assert_eq!(dirty, cell.flat().dirty_byte_ranges(), "cols={cols}");
        }
        assert_eq!(bits(&view), bits(&cell), "cols={cols}");

        // One row, one colour, from a clean map: only that row's chunks.
        view.clear_dirty();
        cell.clear_dirty();
        relax_grid_row(&view, rows - 2, 1, 1.25);
        relax_elementwise(&cell, rows - 2, 1, 1.25);
        let dirty = view.flat().dirty_byte_ranges();
        assert_eq!(dirty, cell.flat().dirty_byte_ranges(), "cols={cols}");
        let row_bytes = (rows - 2) * cols * 8..(rows - 1) * cols * 8;
        assert!(
            dirty
                .iter()
                .all(|r| r.start < row_bytes.end && r.end > row_bytes.start),
            "cols={cols}: {dirty:?} strays from row bytes {row_bytes:?}"
        );
    }
}

#[test]
fn declared_range_stops_at_the_first_and_last_cell_stored() {
    // Row 1, colour 1 stores the even columns 2, 4, ... Chosen so that a
    // chunk edge separates the span stored from the cell next to it, which
    // a declaration of the whole interior `1..cols-1` would drag in:
    //   513 columns: cell (1, 511), not stored, opens chunk 1;
    //  1022 columns: cell (1, 1), not stored, closes chunk 0.
    for (cols, chunk) in [(513usize, 0usize), (1022, 1)] {
        let (view, cell) = twin_grids(3, cols, 11);
        relax_grid_row(&view, 1, 1, 1.25);
        relax_elementwise(&cell, 1, 1, 1.25);
        let dirty = view.flat().dirty_byte_ranges();
        assert_eq!(dirty, cell.flat().dirty_byte_ranges(), "cols={cols}");
        assert_eq!(dirty, vec![chunk * 8192..(chunk + 1) * 8192], "cols={cols}");
    }
}

#[test]
fn incremental_sor_writes_the_files_of_the_per_cell_kernel() {
    // Length and CRC-32 (of everything before the CRC trailer) of the
    // record this run's chain folded to at PR 11, when every store went
    // through `SharedGrid::set` and incremental saves wrote a base and two
    // deltas: the state at safe point 3, which the one record this run
    // leaves must hold byte for byte. n = 1030: the first chunk (inside
    // border row 0) and the last are never written, so a chunk marked too
    // much or too little shows in a patched save.
    const AT_PARENT: (&str, usize, u32) = ("ckpt_master.bin", 8_487_371, 0x07cd_82ce);
    let dir = std::env::temp_dir().join(format!("ppar_row_views_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = SorParams {
        fail_after: Some(3),
        ..SorParams::new(1030, 5)
    };
    let plan = plan_seq().merge(plan_ckpt_incremental(1, 8));
    let report = launch(&Deploy::Seq, plan, Some(&dir), None, |ctx| {
        (AppStatus::Crashed, sor_pluggable(ctx, &p))
    })
    .expect("incremental run");
    let stats = report.stats.unwrap();
    assert_eq!(stats.snapshots_taken, 3);
    assert_eq!(
        report.results[0].1.checksum.to_bits(),
        0x4120_2e94_479a_fde8
    );
    let (name, len, body_crc) = AT_PARENT;
    let bytes = std::fs::read(dir.join(name)).expect(name);
    assert_eq!(bytes.len(), len, "{name}");
    assert_eq!(crc32(&bytes[..len - 4]), body_crc, "{name}");
    let names = std::fs::read_dir(&dir).unwrap();
    let names = names.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
    let deltas: Vec<_> = names.filter(|n| n.contains("_delta_")).collect();
    assert!(deltas.is_empty(), "{deltas:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
