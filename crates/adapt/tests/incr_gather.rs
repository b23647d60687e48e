//! Master-collect + incremental checkpointing: the distributed gather moves
//! only *dirty ranges* (each rank ships the bytes it wrote, clamped to its
//! owned block), so partitioned-field deltas scale with the aggregate dirty
//! fraction instead of the field size — where a whole-partition gather
//! before every save would mark everything dirty at the root.

use ppar_adapt::{launch, AppStatus, Deploy};
use ppar_core::ctx::Ctx;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{Plan, Plug, PointSet, UpdateAction};
use ppar_core::shared::DIRTY_CHUNK_BYTES;
use ppar_dsm::SpmdConfig;

const N: usize = 80_000; // f64 elements -> 640 KB field, 80 dirty chunks
const STRIDE: usize = 20_000; // one touched element per rank (4 ranks)
const ITERS: usize = 10;

/// A sparse-touch kernel: every iteration each rank rewrites one element of
/// its owned block; everything else stays clean.
fn sparse_app(ctx: &Ctx, iters: usize, fail_after: Option<usize>) -> (AppStatus, f64) {
    let v = ctx.alloc_vec("V", N, 0.0f64);
    for it in 0..iters {
        let v2 = v.clone();
        ctx.call("touch_m", move |ctx| {
            ctx.each("touch", 0..N, |_, i| {
                if i % STRIDE == 1 {
                    v2.set(i, (it + 1) as f64 + i as f64);
                }
            });
        });
        ctx.point("sp");
        if Some(it + 1) == fail_after {
            return (AppStatus::Crashed, 0.0);
        }
    }
    ctx.point("collect");
    (AppStatus::Completed, v.as_slice().iter().sum())
}

fn sparse_plan(full_every: usize) -> Plan {
    unsaved_plan(full_every).plug(Plug::SafeData { field: "V".into() })
}

/// [`sparse_plan`] with no safe data: its saves gather nothing.
fn unsaved_plan(full_every: usize) -> Plan {
    Plan::new()
        .plug(Plug::Field {
            field: "V".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::DistFor {
            loop_name: "touch".into(),
            field: "V".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "V".into(),
            action: UpdateAction::Gather,
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["sp".into()]),
            every: 1,
        })
        .plug(Plug::Ignorable {
            method: "touch_m".into(),
        })
        .plug(Plug::IncrementalCkpt { full_every })
}

fn expected_checksum(iters: usize) -> f64 {
    (0..N)
        .filter(|i| i % STRIDE == 1)
        .map(|i| iters as f64 + i as f64)
        .sum()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_incrg_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn master_collect_deltas_scale_with_dirty_fraction() {
    let dir = tmpdir("savings");
    let deploy = Deploy::Dist(SpmdConfig::instant(4));
    // full_every large enough that every snapshot after the base is a delta.
    let outcome = launch(&deploy, sparse_plan(64), Some(&dir), None, |ctx| {
        sparse_app(ctx, ITERS, None)
    })
    .unwrap();
    assert!(outcome.completed());
    assert_eq!(outcome.results[0].1, expected_checksum(ITERS));

    let stats = outcome.stats.expect("rank-0 stats");
    assert_eq!(stats.full_snapshots, 1, "one base");
    assert_eq!(stats.delta_snapshots as usize, ITERS - 1);
    let base_bytes = N as u64 * 8;
    // The acceptance signal: with 4 ranks × 1 touched chunk the delta must
    // collapse towards the dirty fraction (4 × 8 KiB ≈ base/20), where the
    // old whole-partition gather forced it to ~the full field.
    assert!(
        stats.last_save_bytes * 8 < base_bytes,
        "delta {}B must be far below the {}B field (dirty-range gather)",
        stats.last_save_bytes,
        base_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A steady save's gather moves, per peer, one range payload: the peer's
/// dirty bytes clamped to its block and widened to whole indices, plus the
/// range header — a range count and a `(start, end)` pair per range — and
/// nothing else. Measured as the SimNet traffic that one more iteration
/// adds, over the same for a plan whose saves gather nothing.
#[test]
fn a_steady_gather_ships_dirty_indices_and_a_range_header() {
    let deploy = Deploy::Dist(SpmdConfig::instant(4));
    let step = |plan: fn(usize) -> Plan| {
        let moved = |iters: usize| {
            let dir = tmpdir(&format!("steady_{iters}"));
            let outcome = launch(&deploy, plan(64), Some(&dir), None, |ctx| {
                sparse_app(ctx, iters, None)
            })
            .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            outcome.traffic.expect("an aggregate's traffic").bytes()
        };
        moved(ITERS + 1) - moved(ITERS)
    };
    // Each peer touches one element, so one dirty chunk of its block.
    let payloads: u64 = (1..4)
        .map(|rank| {
            let block = rank * STRIDE..(rank + 1) * STRIDE;
            let chunk = (rank * STRIDE + 1) * 8 / DIRTY_CHUNK_BYTES * DIRTY_CHUNK_BYTES;
            let start = (chunk / 8).max(block.start);
            let end = (chunk + DIRTY_CHUNK_BYTES).div_ceil(8).min(block.end);
            (end - start) as u64 * 8 + 8 + 16
        })
        .sum();
    assert_eq!(step(sparse_plan) - step(unsaved_plan), payloads);
}

/// The merged chain built from dirty-range gathers restores exactly:
/// crash mid-run, restart, finish — the result equals the uncrashed run.
#[test]
fn dirty_gathered_chain_restores_exactly_across_restart() {
    let dir = tmpdir("restore");
    let deploy = Deploy::Dist(SpmdConfig::instant(4));

    // Run 1: base at sp 1, deltas 2..6, crash after 6.
    let r1 = launch(&deploy, sparse_plan(64), Some(&dir), None, |ctx| {
        sparse_app(ctx, ITERS, Some(6))
    })
    .unwrap();
    assert!(!r1.completed());

    // Run 2: replays to sp 6 (loading base + dirty-gathered deltas), then
    // finishes live.
    let r2 = launch(&deploy, sparse_plan(64), Some(&dir), None, |ctx| {
        sparse_app(ctx, ITERS, None)
    })
    .unwrap();
    assert!(r2.completed());
    assert!(r2.replayed);
    assert_eq!(
        r2.results[0].1,
        expected_checksum(ITERS),
        "restart over a dirty-gathered delta chain must be exact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restarting in a *different* mode from a dirty-gathered chain still works
/// (master-collected data stays mode independent).
#[test]
fn dirty_gathered_chain_restarts_in_another_mode() {
    let dir = tmpdir("cross_mode");

    let r1 = launch(
        &Deploy::Dist(SpmdConfig::instant(4)),
        sparse_plan(64),
        Some(&dir),
        None,
        |ctx| sparse_app(ctx, ITERS, Some(7)),
    )
    .unwrap();
    assert!(!r1.completed());

    // Restart sequentially: the merged master is complete despite having
    // been assembled from per-rank dirty ranges.
    let r2 = launch(&Deploy::Seq, sparse_plan(64), Some(&dir), None, |ctx| {
        sparse_app(ctx, ITERS, None)
    })
    .unwrap();
    assert!(r2.completed());
    assert!(r2.replayed);
    assert_eq!(r2.results[0].1, expected_checksum(ITERS));
    let _ = std::fs::remove_dir_all(&dir);
}
