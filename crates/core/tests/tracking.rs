//! Integration tests for the disjoint-write contract tracker.
//!
//! These live in their own test binary because the tracker is process-global
//! state; unit tests inside the crate run concurrently and would interfere.

use std::sync::Arc;

use ppar_core::shared::{set_current_worker, tracking, SharedGrid, SharedVec};

/// Run `declare` as worker 1 on a thread of its own and require the
/// tracker's panic.
fn assert_violation(declare: impl FnOnce() + Send + 'static) {
    let result = std::thread::spawn(move || {
        set_current_worker(1);
        declare();
    })
    .join();
    let msg = format!("{:?}", result.unwrap_err().downcast_ref::<String>());
    assert!(
        msg.contains("disjoint-write contract violation"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn tracker_detects_cross_worker_overlap_and_allows_epochs() {
    // Part 1: overlapping writes from different workers panic.
    tracking::enable();
    let v = Arc::new(SharedVec::new(16, 0u64));

    set_current_worker(0);
    v.set(3, 1);

    let v2 = v.clone();
    let result = std::thread::spawn(move || {
        set_current_worker(1);
        // Same index, same epoch, different worker -> contract violation.
        v2.set(3, 2);
    })
    .join();
    assert!(
        result.is_err(),
        "conflicting write from another worker must panic"
    );
    let msg = format!("{:?}", result.unwrap_err().downcast_ref::<String>());
    assert!(
        msg.contains("disjoint-write contract violation"),
        "unexpected panic message: {msg}"
    );

    // Part 2: same worker rewriting the same index is fine.
    set_current_worker(0);
    v.set(3, 3);

    // Part 3: after an epoch advance (a synchronisation point), another
    // worker may write the index.
    tracking::advance_epoch();
    let v3 = v.clone();
    std::thread::spawn(move || {
        set_current_worker(1);
        v3.set(3, 4);
    })
    .join()
    .expect("write in new epoch must not panic");
    assert_eq!(v.get(3), 4);

    // Part 4: disjoint parallel writes never panic.
    tracking::advance_epoch();
    let threads: Vec<_> = (0..4)
        .map(|w| {
            let v = v.clone();
            std::thread::spawn(move || {
                set_current_worker(w);
                for i in (w..16).step_by(4) {
                    v.set(i, w as u64);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("disjoint writes must not panic");
    }

    // Part 5: a range declared written through a view counts like a `set`
    // of every index in it. Overlapping declarations by two workers in one
    // epoch panic (elements 8..16 against 12..16, columns 0..10 against
    // 9..20 of one grid row) ...
    tracking::advance_epoch();
    let g = Arc::new(SharedGrid::new(4, 32, 0u64));
    set_current_worker(0);
    v.cells(8..16)[0].set(9);
    v.mark_written(8..16);
    g.row_cells(2)[5].set(9);
    g.mark_row_written(2, 0..10);
    let (v1, g1) = (v.clone(), g.clone());
    assert_violation(move || v1.mark_written(12..16));
    assert_violation(move || g1.mark_row_written(2, 9..20));
    // ... disjoint declarations in the same epoch do not ...
    let (v2, g2) = (v.clone(), g.clone());
    std::thread::spawn(move || {
        set_current_worker(1);
        v2.mark_written(0..8);
        g2.mark_row_written(2, 10..32);
        g2.mark_row_written(3, 0..10);
    })
    .join()
    .expect("disjoint declared ranges must not panic");
    // ... and neither does the same range after a synchronisation point.
    tracking::advance_epoch();
    let (v3, g3) = (v.clone(), g.clone());
    std::thread::spawn(move || {
        set_current_worker(1);
        v3.mark_written(8..16);
        g3.mark_row_written(2, 0..10);
    })
    .join()
    .expect("declared range in a new epoch must not panic");
    set_current_worker(0);

    tracking::disable();
    assert!(!tracking::enabled());

    // Part 6: with tracking disabled, overlapping writes are not checked
    // (they are still *wrong* under the contract, but undetected; here the
    // two writes are sequenced by join so there is no actual race).
    set_current_worker(0);
    v.set(3, 7);
    std::thread::spawn({
        let v = v.clone();
        move || {
            set_current_worker(1);
            v.set(3, 8);
        }
    })
    .join()
    .unwrap();
    set_current_worker(0);
}
