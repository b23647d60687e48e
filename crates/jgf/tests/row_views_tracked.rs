//! The row-view SOR kernel under the disjoint-write tracker: the kernel
//! production runs is the kernel the tracker checks. A binary of its own,
//! because the tracker is process-global.

use std::sync::Arc;

use ppar_core::shared::{set_current_worker, tracking, SharedGrid};
use ppar_jgf::sor::{fill_grid, interior_rows, relax_grid_row, relax_row};

const N: usize = 37;
const OMEGA: f64 = 1.25;

#[test]
fn tracker_checks_the_span_the_view_kernel_declares() {
    tracking::enable();
    let g = Arc::new(SharedGrid::new(N, N, 0.0f64));
    let twin = SharedGrid::new(N, N, 0.0f64);
    set_current_worker(0);
    fill_grid(&g, 7);
    fill_grid(&twin, 7);

    // One sweep, rows dealt to two workers in turn: adjacent rows, spans
    // that never meet, no violation.
    tracking::advance_epoch();
    for worker in 0..2 {
        let g = g.clone();
        std::thread::spawn(move || {
            set_current_worker(worker);
            for i in interior_rows(N).filter(|i| i % 2 == worker) {
                relax_grid_row(&g, i, 0, OMEGA);
            }
        })
        .join()
        .expect("rows relaxed by one worker each must not panic");
    }
    for i in interior_rows(N) {
        relax_row(N, i, 0, OMEGA, &|r, c| twin.get(r, c), &|r, c, v| {
            twin.set(r, c, v)
        });
    }
    assert_eq!(g.flat().to_vec(), twin.flat().to_vec());

    // A second worker relaxing a row already relaxed in this epoch is the
    // construct-contract violation the tracker exists for.
    let g2 = g.clone();
    let result = std::thread::spawn(move || {
        set_current_worker(1);
        relax_grid_row(&g2, 2, 0, OMEGA);
    })
    .join();
    let msg = format!("{:?}", result.unwrap_err().downcast_ref::<String>());
    assert!(
        msg.contains("disjoint-write contract violation"),
        "unexpected panic message: {msg}"
    );

    // After a synchronisation point the other colour of that row is free.
    tracking::advance_epoch();
    let g3 = g.clone();
    std::thread::spawn(move || {
        set_current_worker(1);
        relax_grid_row(&g3, 2, 1, OMEGA);
    })
    .join()
    .expect("a new epoch must not panic");

    set_current_worker(0);
    tracking::disable();
}

#[test]
#[should_panic(expected = "not an interior row")]
fn border_rows_are_refused_in_every_build() {
    relax_grid_row(&SharedGrid::new(5, 5, 0.0f64), 0, 0, OMEGA);
}

#[test]
#[should_panic(expected = "not an interior row")]
fn last_row_is_refused_too() {
    relax_grid_row(&SharedGrid::new(5, 5, 0.0f64), 4, 0, OMEGA);
}
