//! Fig. 4 spot benches: snapshot save cost (serialise + persist) for
//! sequential and master-collect distributed checkpoints.
//!
//! Variants per grid size:
//!
//! * `streaming_n*` — the current full-snapshot pipeline: `put` of a
//!   `Record::Full` streams the grid's backing bytes through the store's
//!   sink (a `BufWriter`) with a running slice-by-8 CRC; no per-element
//!   serialization, no whole-snapshot buffer;
//! * `incremental_n*_d<pct>` — the dirty-chunk delta pipeline at a `pct`%
//!   dirty fraction: per iteration the bench touches that share of the
//!   grid's 8 KiB chunks and streams only those, as a `Record::Delta`,
//!   through the same `put`. Save cost should scale with
//!   the dirty fraction (the d100 arm ≈ the streaming full snapshot plus
//!   the chunk map).
//!
//! Baseline note: as of the streaming-pipeline PR, *all* series write to
//! RAM-backed storage (`/dev/shm` when present) so they compare
//! serialization pipelines rather than disk writeback. Numbers recorded
//! before that PR used `std::env::temp_dir()` and are not comparable;
//! within any one run every variant shares the same storage.

use criterion::{criterion_group, criterion_main, Criterion};
use ppar_ckpt::delta::DeltaMeta;
use ppar_ckpt::store::{CheckpointStore, DeltaSource, FieldSource, Record, SnapshotMeta};
use ppar_ckpt::CkptTransport;
use ppar_core::shared::{SharedGrid, DIRTY_CHUNK_BYTES};
use ppar_core::state::StateCell;

/// Benchmark in RAM-backed storage when available so the numbers compare
/// serialization pipelines, not disk writeback throttling.
fn bench_dir(tag: &str) -> std::path::PathBuf {
    let shm = std::path::Path::new("/dev/shm");
    let base = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!("ppar_crit_fig4_{tag}"))
}

fn meta() -> SnapshotMeta {
    SnapshotMeta {
        mode_tag: "seq".into(),
        count: 1,
        rank: None,
        nranks: 1,
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_save_cost");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(2));

    for n in [128usize, 256, 512] {
        let grid = SharedGrid::new(n, n, 1.5f64);
        let dir = bench_dir(&n.to_string());
        let store = CheckpointStore::new(&dir).unwrap();

        g.bench_function(format!("streaming_n{n}"), |b| {
            b.iter(|| {
                let fields: [(&str, FieldSource<'_>); 1] = [("G", FieldSource::Cell(&grid))];
                store.put(&Record::Full(&meta(), &fields)).unwrap()
            })
        });

        // Incremental arm: delta save cost at fixed dirty fractions. One
        // element written per dirty chunk (the tracking granularity), chunks
        // spread evenly across the grid.
        let total_chunks = (n * n * 8).div_ceil(DIRTY_CHUNK_BYTES);
        let chunk_elems = DIRTY_CHUNK_BYTES / 8;
        for pct in [1usize, 10, 50, 100] {
            let touched = ((total_chunks * pct) / 100).max(1);
            let dmeta = DeltaMeta {
                mode_tag: "seq".into(),
                count: 2,
                base_count: 1,
                seq: 1,
                rank: None,
                nranks: 1,
            };
            g.bench_function(format!("incremental_n{n}_d{pct}"), |b| {
                let flat = grid.flat();
                b.iter(|| {
                    flat.clear_dirty();
                    for k in 0..touched {
                        let chunk = k * total_chunks / touched;
                        flat.set((chunk * chunk_elems).min(flat.len() - 1), 2.5);
                    }
                    let ranges = flat.dirty_byte_ranges();
                    let fields: [(&str, DeltaSource<'_>); 1] = [(
                        "G",
                        DeltaSource::DirtyCell {
                            cell: &grid,
                            ranges: &ranges,
                        },
                    )];
                    store.put(&Record::Delta(&dmeta, &fields)).unwrap()
                })
            });
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
