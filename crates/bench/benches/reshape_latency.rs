//! Reshape-latency microbench: **in-place (live) reshape vs restart-based
//! reshape**.
//!
//! Two levels:
//!
//! * `transport_*` — the pure state hand-off cost for a 32 MiB field. The
//!   in-place arm streams a master snapshot into a
//!   [`ppar_ckpt::MemTransport`], reads it merged and reinstalls — the
//!   exact path a live reshape pays at the crossing. The restart arm pays
//!   what adaptation-by-restart pays instead: stream the snapshot to disk,
//!   re-run the pcr start-up protocol (marker detection + restart-target
//!   chain walk, i.e. "relaunch"), read the file back merged and
//!   reinstall.
//! * `e2e_*` — whole SOR runs that switch `smp2 -> hyb2x2` mid-run, via
//!   [`ppar_adapt::launch_live`] (in-memory hand-off, in-process relaunch)
//!   and via the classic two-launch checkpoint/restart cycle.
//! * the **progress sweep** — reshape at iteration {0, N/4, N/2, 3N/4} of a
//!   32 MiB SOR run: the region-cursor resume fast-forwards to the recorded
//!   loop entry and replays only the bounded mid-iteration tail. The switch
//!   lands *mid-loop* — between the red and black sweeps — so the cursor is
//!   exercised away from the clean iteration boundary.
//!
//! The acceptance bars: **≥ 5× lower in-place hand-off latency** on the
//! transport seam, cursor-resume latency at 3N/4 **within 1.5×** of the
//! iteration-0 resume, and a replay tail of at most 2 safe points wherever
//! the reshape lands. Full runs append one machine-readable entry to
//! `BENCH_reshape.json` at the workspace root.
//!
//! `PPAR_RESHAPE_SMOKE=1` (the CI arm) runs one small shape of each level
//! and asserts the in-place arm wins, every resume stays bitwise-identical
//! to the sequential reference, and the cursor's replay work is flat in
//! progress — rather than measuring steady state.

use criterion::{criterion_group, criterion_main, Criterion};

use ppar_adapt::{launch, launch_live, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_ckpt::store::{FieldSource, Record, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CheckpointModule, CheckpointStore, CkptStats, MemTransport};
use ppar_core::mode::ExecMode;
use ppar_core::plan::{Plan, Plug, PointSet};
use ppar_core::shared::SharedVec;
use ppar_core::state::StateCell;
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::pluggable::{plan_ckpt, plan_ckpt_midloop, plan_hybrid, sor_pluggable};
use ppar_jgf::sor::{sor_seq, SorParams};

fn smoke() -> bool {
    std::env::var("PPAR_RESHAPE_SMOKE").is_ok_and(|v| v == "1")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_reshape_bench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn ckpt_plan() -> Plan {
    Plan::new()
        .plug(Plug::SafeData { field: "G".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["p".into()]),
            every: 0,
        })
}

/// One round trip through the memory medium: put the field into memory as
/// a whole record (encoded, CRC included), lend it back through the
/// borrowed view, reinstall. A live reshape no longer pays this: its
/// crossing freezes the predecessor's cells and encodes no record
/// (`ppar_ckpt::Handoff`). The arm stays as the in-memory counterpart of
/// the restart arm below. Returns bytes moved (sanity).
fn inplace_handoff(mem: &MemTransport, cell: &SharedVec<f64>, meta: &SnapshotMeta) -> u64 {
    let fields: Vec<(&str, FieldSource<'_>)> = vec![("G", FieldSource::Cell(cell))];
    let written = mem.put(&Record::Full(meta, &fields)).unwrap();
    mem.with_merged_master(&mut |snap| cell.load_bytes(snap.field("G").unwrap()))
        .unwrap();
    written
}

/// One restart-based hand-off: snapshot to disk, re-run module start-up
/// (failure detection + restart-target walk — the "relaunch"), read the
/// file merged, reinstall.
fn restart_handoff(cell: &SharedVec<f64>, meta: &SnapshotMeta, dir: &std::path::Path) -> u64 {
    let store = CheckpointStore::new(dir).unwrap();
    store.set_marker().unwrap();
    let fields: Vec<(&str, FieldSource<'_>)> = vec![("G", FieldSource::Cell(cell))];
    let written = store.put(&Record::Full(meta, &fields)).unwrap();
    // The successor process's start-up protocol.
    let plan = ckpt_plan();
    let module = CheckpointModule::create(dir, &plan).unwrap();
    assert!(module.will_replay());
    let snap = module.store().get(None, None).unwrap().unwrap();
    cell.load_bytes(snap.field("G").unwrap()).unwrap();
    written
}

fn e2e_params(n: usize, iters: usize) -> SorParams {
    SorParams::new(n, iters)
}

/// Whole-run live reshape: smp2 -> hyb2x2 at crossing `switch`.
fn e2e_live(params: &SorParams, switch: u64) -> f64 {
    let controller = AdaptationController::with_timeline(
        ResourceTimeline::new().at(switch, ExecMode::hybrid(2, 2)),
    );
    let plan = plan_hybrid().merge(plan_ckpt(0));
    let outcome = launch_live(
        &Deploy::Smp {
            threads: 2,
            max_threads: 2,
        },
        plan,
        None,
        controller,
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, params)),
    )
    .unwrap();
    assert!(outcome.completed() && outcome.launches == 2);
    outcome.results[0].1.checksum
}

/// Whole-run restart reshape: checkpoint at `switch` in smp2, stop, relaunch
/// from disk in hyb2x2.
fn e2e_restart(params: &SorParams, switch: usize) -> f64 {
    let dir = scratch("e2e");
    let plan = || plan_hybrid().merge(plan_ckpt(switch));
    let crash_params = SorParams {
        fail_after: Some(switch),
        ..params.clone()
    };
    let r1 = launch(
        &Deploy::Smp {
            threads: 2,
            max_threads: 2,
        },
        plan(),
        Some(&dir),
        None,
        |ctx| (AppStatus::Crashed, sor_pluggable(ctx, &crash_params)),
    )
    .unwrap();
    assert!(!r1.completed());
    let r2 = launch(
        &Deploy::hybrid(SpmdConfig::instant(2), 2),
        plan(),
        Some(&dir),
        None,
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, params)),
    )
    .unwrap();
    assert!(r2.completed() && r2.replayed);
    let checksum = r2.results[0].1.checksum;
    let _ = std::fs::remove_dir_all(&dir);
    checksum
}

/// One cell of the progress sweep: resume cost of a reshape that lands at
/// iteration `switch`.
struct SweepCell {
    switch: usize,
    resume_ms: f64,
    replayed: u64,
    resumed_at: u64,
}

/// The resume-only latency of a restart: replay (start-up to load start,
/// fast-forwarded or not) plus the state install — the remaining compute
/// after the switch is deliberately excluded.
fn resume_ms(stats: &CkptStats) -> f64 {
    (stats.replay_time + stats.load_time).as_secs_f64() * 1e3
}

/// One restart-based reshape whose crossing lands *mid-loop*: checkpoint
/// between the red and black sweeps of iteration `switch` (crossing
/// `3*switch + 2` — each iteration crosses `pre_sweep` twice and `iter_end`
/// once) in smp2, stop, relaunch in hyb2x2 and complete. Returns run-2's
/// checksum and resume stats.
fn reshape_resume(params: &SorParams, switch: usize) -> (f64, CkptStats) {
    let dir = scratch("sweep");
    let crossing = 3 * switch + 2;
    let crash_params = SorParams {
        fail_after: Some(switch + 1),
        ..params.clone()
    };
    let r1 = launch(
        &Deploy::Smp {
            threads: 2,
            max_threads: 2,
        },
        plan_hybrid().merge(plan_ckpt_midloop(crossing)),
        Some(&dir),
        None,
        |ctx| (AppStatus::Crashed, sor_pluggable(ctx, &crash_params)),
    )
    .unwrap();
    assert!(!r1.completed());
    // Run 2: resume in the new shape. `every = 0` keeps the module counting
    // safe points without re-snapshotting after the resume.
    let r2 = launch(
        &Deploy::hybrid(SpmdConfig::instant(2), 2),
        plan_hybrid().merge(plan_ckpt_midloop(0)),
        Some(&dir),
        None,
        |ctx| (AppStatus::Completed, sor_pluggable(ctx, params)),
    )
    .unwrap();
    assert!(r2.completed() && r2.replayed);
    let _ = std::fs::remove_dir_all(&dir);
    (r2.results[0].1.checksum, r2.stats.expect("ckpt stats"))
}

/// Reshape at iteration {0, N/4, N/2, 3N/4} of an `n`×`n` SOR run, best of
/// `reps` per cell. Every resume is asserted bitwise against the
/// sequential reference on the spot.
fn progress_sweep(n: usize, iters: usize, reps: usize) -> Vec<SweepCell> {
    let params = e2e_params(n, iters);
    let reference = sor_seq(&params).checksum;
    [0, iters / 4, iters / 2, 3 * iters / 4]
        .into_iter()
        .map(|s| {
            let (mut best_ms, mut best) = (f64::INFINITY, CkptStats::default());
            for _ in 0..reps {
                let (ck, st) = reshape_resume(&params, s);
                assert_eq!(
                    ck.to_bits(),
                    reference.to_bits(),
                    "cursor resume at iteration {s} must stay bitwise"
                );
                let ms = resume_ms(&st);
                if ms < best_ms {
                    (best_ms, best) = (ms, st);
                }
            }
            println!(
                "reshape sweep: switch@{s} resume {best_ms:.1} ms (replay {:.1} + load {:.1}, \
                 {} pts, resumed_at {})",
                best.replay_time.as_secs_f64() * 1e3,
                best.load_time.as_secs_f64() * 1e3,
                best.replayed_points,
                best.resumed_at_point
            );
            SweepCell {
                switch: s,
                resume_ms: best_ms,
                replayed: best.replayed_points,
                resumed_at: best.resumed_at_point,
            }
        })
        .collect()
}

fn smoke_run() {
    // Transport level: a 8 MiB field, once per arm, in-place must win.
    let n = 1 << 20; // f64s
    let cell = SharedVec::from_vec((0..n).map(|i| i as f64).collect());
    let meta = SnapshotMeta {
        mode_tag: "smp2".into(),
        count: 1,
        rank: None,
        nranks: 1,
    };
    let mem = MemTransport::new();
    let t0 = std::time::Instant::now();
    let moved_mem = inplace_handoff(&mem, &cell, &meta);
    let t_mem = t0.elapsed();
    let dir = scratch("smoke");
    let t0 = std::time::Instant::now();
    let moved_disk = restart_handoff(&cell, &meta, &dir);
    let t_disk = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(moved_mem, moved_disk, "identical record bytes");
    println!(
        "reshape smoke: in-place {t_mem:?} vs restart {t_disk:?} ({:.1}x)",
        t_disk.as_secs_f64() / t_mem.as_secs_f64().max(1e-12)
    );
    assert!(
        t_mem < t_disk,
        "in-place hand-off must beat the disk round-trip: {t_mem:?} vs {t_disk:?}"
    );

    // End-to-end level: tiny SOR, both paths must agree bitwise with seq.
    let params = e2e_params(33, 8);
    let reference = sor_seq(&params);
    let live = e2e_live(&params, 3);
    let restart = e2e_restart(&params, 3);
    assert_eq!(live, reference.checksum);
    assert_eq!(restart, reference.checksum);
    println!("reshape smoke: e2e live/restart checksums match the sequential reference");

    // Progress sweep, tiny shape. The wall clock is noise at this size, so
    // the CI flatness assertion rides on the deterministic cost driver: the
    // cursor's replay work must be a bounded tail no matter how far the run
    // progressed.
    let cells = progress_sweep(65, 8, 1);
    for c in &cells {
        assert!(
            c.replayed <= 2,
            "cursor resume must replay a bounded tail, got {} points at switch {}",
            c.replayed,
            c.switch
        );
        assert_eq!(
            c.resumed_at,
            3 * c.switch as u64,
            "cursor must jump to the entry of iteration {}",
            c.switch
        );
    }
    // Generously slacked wall-clock check (absolute floor absorbs CI noise
    // on a sub-millisecond resume): mid-run reshape must not cost more than
    // iteration-0 reshape plus slack.
    assert!(
        cells[3].resume_ms <= 1.5 * cells[0].resume_ms + 30.0,
        "cursor resume cost must stay flat in progress: {:.2} ms at 3N/4 vs {:.2} ms at 0",
        cells[3].resume_ms,
        cells[0].resume_ms
    );
    println!("reshape smoke: cursor resume flat in progress, all bitwise");
}

fn bench(c: &mut Criterion) {
    if smoke() {
        smoke_run();
        return;
    }

    // ---- transport-level hand-off: 32 MiB field ----
    let n = 4 << 20; // f64s -> 32 MiB
    let cell = SharedVec::from_vec((0..n).map(|i| (i as f64).sqrt()).collect());
    let meta = SnapshotMeta {
        mode_tag: "smp2".into(),
        count: 1,
        rank: None,
        nranks: 1,
    };
    let mut g = c.benchmark_group("reshape_latency_transport");
    g.sample_size(10);
    let mem = MemTransport::new();
    g.bench_function("inplace_mem_handoff_32mib", |b| {
        b.iter(|| inplace_handoff(&mem, &cell, &meta))
    });
    let dir = scratch("transport");
    g.bench_function("restart_disk_roundtrip_32mib", |b| {
        b.iter(|| restart_handoff(&cell, &meta, &dir))
    });
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();

    // ---- end-to-end: smp2 -> hyb2x2 mid-run ----
    let params = e2e_params(160, 10);
    let mut g = c.benchmark_group("reshape_latency_e2e");
    g.sample_size(10);
    g.bench_function("live_smp2_to_hyb2x2", |b| b.iter(|| e2e_live(&params, 4)));
    g.bench_function("restart_smp2_to_hyb2x2", |b| {
        b.iter(|| e2e_restart(&params, 4))
    });
    g.finish();

    // ---- progress sweep: 32 MiB grid, reshape at {0, N/4, N/2, 3N/4} ----
    // One-shot transport medians for the history entry (the criterion
    // groups above measure the same arms but keep their numbers to
    // themselves).
    let reps = 3;
    let t_inplace = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            inplace_handoff(&mem, &cell, &meta);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let dir = scratch("json");
    let t_restart = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            restart_handoff(&cell, &meta, &dir);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&dir);

    let iters = 64;
    let cells = progress_sweep(2048, iters, 2);
    let (c0, c3) = (&cells[0], &cells[3]);
    // Acceptance: resume latency is flat in progress — reshape at 3N/4
    // within 1.5x of reshape at iteration 0...
    let flat = c3.resume_ms / c0.resume_ms;
    assert!(
        flat <= 1.5,
        "cursor resume at 3N/4 must cost within 1.5x of iteration 0: \
         {:.1} ms vs {:.1} ms ({flat:.2}x)",
        c3.resume_ms,
        c0.resume_ms
    );
    // ...because the replay work is a bounded tail wherever the run stood.
    assert!(
        cells.iter().all(|c| c.replayed <= 2),
        "cursor resume must replay at most 2 safe points"
    );
    println!("reshape sweep: flatness {flat:.2}x (<=1.5x)");

    let sweep_json = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"switch_iter\": {}, \"resume_ms\": {:.2}, \"replayed_points\": {}, \
                 \"resumed_at\": {}}}",
                c.switch, c.resume_ms, c.replayed, c.resumed_at
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let ts = ppar_bench::json::unix_time();
    ppar_bench::json::append_history(
        "BENCH_reshape.json",
        &format!(
            "  {{\"unix_time\": {ts}, \"grid_mib\": 32, \"iterations\": {iters}, \
             \"transport_inplace_ms\": {t_inplace:.2}, \"transport_restart_ms\": {t_restart:.2}, \
             \"sweep\": [{sweep_json}], \"flatness_3n4_vs_0\": {flat:.2}}}"
        ),
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
