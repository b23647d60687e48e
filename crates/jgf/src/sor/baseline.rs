//! Hand-written SOR baselines: the paper's "original" and "invasive" curves.
//!
//! * *original* — direct thread / message-passing implementations with no
//!   checkpoint support at all (what the JGF suite ships);
//! * *invasive* — the same code with checkpoint logic spliced into the
//!   domain loop by hand (counter checks, barrier + master save, restart by
//!   jumping to the saved iteration). This is the classic technique the
//!   paper compares pluggable checkpointing against in Fig. 3: the point is
//!   that PP adds *no additional overhead* over this, while keeping the
//!   domain code clean.
//!
//! Both sides of every such comparison run the same kernel form. The grid
//! variants here and the pluggable base code relax their rows through the
//! one [`relax_grid_row`] (JGF's three-row `Gim1`/`Gi`/`Gip1` loop on row
//! views of a `SharedGrid`), and [`sor_seq`](super::sor_seq) is the same
//! loop written out on an owned matrix. A pluggable-over-hand-written ratio
//! therefore measures what the runtime adds (join points, team fork/join,
//! halo exchange, checkpoint plugs), not a difference between two kernels.

use std::sync::Barrier;

use ppar_ckpt::store::{CheckpointStore, FieldSource, Record, SnapshotMeta};
use ppar_ckpt::CkptTransport;
use ppar_core::partition::block_owned;
use ppar_core::shared::SharedGrid;
use ppar_core::state::{DistCell, StateCell};
use ppar_dsm::{Endpoint, SimNet, SpmdConfig};

use super::{fill_grid, interior_rows, relax_grid_row, SorParams, SorResult};

// ---------------------------------------------------------------------------
// original: threads
// ---------------------------------------------------------------------------

/// Hand-written shared-memory SOR (JGF "Threads" style): scoped threads,
/// block rows, one barrier per colour sweep.
pub fn sor_threads(p: &SorParams, threads: usize) -> SorResult {
    let threads = threads.max(1);
    let n = p.n;
    let g = SharedGrid::new(n, n, 0.0f64);
    fill_grid(&g, p.seed);
    let barrier = Barrier::new(threads);
    let g_ref = &g;
    let barrier_ref = &barrier;
    std::thread::scope(|s| {
        for t in 0..threads {
            let p = p.clone();
            s.spawn(move || {
                let rows = block_owned(n.saturating_sub(2), threads, t);
                for _it in 0..p.iterations {
                    for color in 0..2usize {
                        for i in rows.clone() {
                            relax_grid_row(g_ref, i + 1, color, p.omega);
                        }
                        barrier_ref.wait();
                    }
                }
            });
        }
    });
    SorResult {
        checksum: g.sum_f64(),
        iterations_done: p.iterations,
        iter_times: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// invasive: sequential + threads
// ---------------------------------------------------------------------------

fn write_invasive_snapshot(store: &CheckpointStore, g: &SharedGrid<f64>, count: u64) {
    let meta = SnapshotMeta {
        mode_tag: "invasive".to_string(),
        count,
        rank: None,
        nranks: 1,
    };
    let payload = g.save_bytes();
    store
        .put(&Record::Full(&meta, &[("G", FieldSource::Bytes(&payload))]))
        .expect("invasive snapshot write");
}

fn read_invasive_restart(store: &CheckpointStore, g: &SharedGrid<f64>) -> usize {
    if !store.marker_exists() {
        return 0;
    }
    match store.get(None, None).expect("snapshot read") {
        Some(snap) => {
            g.load_bytes(snap.field("G").expect("G payload"))
                .expect("snapshot install");
            snap.count as usize
        }
        None => 0,
    }
}

/// Sequential SOR with hand-inserted checkpointing: the checkpoint counter,
/// the save call and the restart-resume logic are tangled into the domain
/// loop — exactly the maintenance burden pluggable checkpointing removes.
pub fn sor_seq_invasive(p: &SorParams, every: usize, dir: &std::path::Path) -> SorResult {
    let n = p.n;
    let store = CheckpointStore::new(dir).expect("store");
    let g = SharedGrid::new(n, n, 0.0f64);
    fill_grid(&g, p.seed);
    let start_iter = read_invasive_restart(&store, &g);
    store.set_marker().expect("marker");

    let mut done = start_iter;
    for it in start_iter..p.iterations {
        for color in 0..2usize {
            for i in interior_rows(n) {
                relax_grid_row(&g, i, color, p.omega);
            }
        }
        done = it + 1;
        if every > 0 && done.is_multiple_of(every) {
            write_invasive_snapshot(&store, &g, done as u64);
        }
        if Some(done) == p.fail_after {
            return SorResult {
                checksum: g.sum_f64(),
                iterations_done: done,
                iter_times: Vec::new(),
            };
        }
    }
    store.clear_marker().expect("marker clear");
    SorResult {
        checksum: g.sum_f64(),
        iterations_done: done,
        iter_times: Vec::new(),
    }
}

/// Threaded SOR with hand-inserted checkpointing (barrier, master saves,
/// barrier — spliced directly into the sweep loop).
pub fn sor_threads_invasive(
    p: &SorParams,
    threads: usize,
    every: usize,
    dir: &std::path::Path,
) -> SorResult {
    let threads = threads.max(1);
    let n = p.n;
    let store = CheckpointStore::new(dir).expect("store");
    let g = SharedGrid::new(n, n, 0.0f64);
    fill_grid(&g, p.seed);
    let start_iter = read_invasive_restart(&store, &g);
    store.set_marker().expect("marker");

    let barrier = Barrier::new(threads);
    let g_ref = &g;
    let store_ref = &store;
    let barrier_ref = &barrier;
    std::thread::scope(|s| {
        for t in 0..threads {
            let p = p.clone();
            s.spawn(move || {
                let rows = block_owned(n.saturating_sub(2), threads, t);
                for it in start_iter..p.iterations {
                    if let Some(f) = p.fail_after {
                        if it >= f {
                            break;
                        }
                    }
                    for color in 0..2usize {
                        for i in rows.clone() {
                            relax_grid_row(g_ref, i + 1, color, p.omega);
                        }
                        barrier_ref.wait();
                    }
                    // invasive checkpoint: count + save between barriers
                    if every > 0 && (it + 1) % every == 0 {
                        if t == 0 {
                            write_invasive_snapshot(store_ref, g_ref, (it + 1) as u64);
                        }
                        barrier_ref.wait();
                    }
                }
            });
        }
    });

    let done = p.fail_after.unwrap_or(p.iterations).min(p.iterations);
    if p.fail_after.is_none() {
        store.clear_marker().expect("marker clear");
    }
    SorResult {
        checksum: g.sum_f64(),
        iterations_done: done.max(start_iter),
        iter_times: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// original: message passing (direct SimNet use, JGF "MPI" style)
// ---------------------------------------------------------------------------

/// Hand-written distributed SOR: explicit halo sends/receives and a final
/// gather, written directly against the simulated transport.
pub fn sor_dist(p: &SorParams, cfg: &SpmdConfig) -> SorResult {
    let n = p.n;
    let nranks = cfg.nranks;
    // A grid without an interior has no rows to exchange either: it keeps
    // its initial values.
    let interior = interior_rows(n);
    let sweeps = if interior.is_empty() { 0 } else { p.iterations };
    let net = SimNet::new(cfg.topology, nranks, cfg.model);
    let mut checksums: Vec<Option<f64>> = vec![None; nranks];
    std::thread::scope(|s| {
        for (rank, slot) in checksums.iter_mut().enumerate() {
            let net = net.clone();
            let p = p.clone();
            s.spawn(move || {
                let ep = Endpoint::new(net, rank);
                let g = SharedGrid::new(n, n, 0.0f64);
                fill_grid(&g, p.seed);
                let own = block_owned(n, nranks, rank);
                for _it in 0..sweeps {
                    for color in 0..2usize {
                        // halo exchange with neighbours
                        let to_prev = (rank > 0).then(|| g.extract(own.start..own.start + 1));
                        let to_next = (rank + 1 < nranks).then(|| g.extract(own.end - 1..own.end));
                        let (from_prev, from_next) = ep.halo_exchange(to_prev, to_next);
                        if let Some(bytes) = from_prev {
                            g.install(own.start - 1..own.start, &bytes).unwrap();
                        }
                        if let Some(bytes) = from_next {
                            g.install(own.end..own.end + 1, &bytes).unwrap();
                        }
                        for i in own.start.max(interior.start)..own.end.min(interior.end) {
                            relax_grid_row(&g, i, color, p.omega);
                        }
                    }
                }
                // gather owned blocks at the root
                let mine = g.extract(own.clone());
                if let Some(all) = ep.gather(0, mine) {
                    for (r, payload) in all.into_iter().enumerate() {
                        if r != 0 {
                            let owned_r = block_owned(n, nranks, r);
                            g.install(owned_r, &payload).unwrap();
                        }
                    }
                    *slot = Some(g.sum_f64());
                }
            });
        }
    });
    SorResult {
        checksum: checksums[0].expect("root checksum"),
        iterations_done: p.iterations,
        iter_times: Vec::new(),
    }
}

/// Distributed SOR with hand-inserted master-collect checkpointing.
pub fn sor_dist_invasive(
    p: &SorParams,
    cfg: &SpmdConfig,
    every: usize,
    dir: &std::path::Path,
) -> SorResult {
    let n = p.n;
    let nranks = cfg.nranks;
    // A grid without an interior has no rows to exchange either: it keeps
    // its initial values.
    let interior = interior_rows(n);
    let sweeps = if interior.is_empty() { 0 } else { p.iterations };
    let net = SimNet::new(cfg.topology, nranks, cfg.model);
    let store = CheckpointStore::new(dir).expect("store");
    // restart detection at the root, broadcast via the data path
    let restart_iter = {
        let probe = SharedGrid::new(n, n, 0.0f64);
        let it = if store.marker_exists() {
            match store.get(None, None).expect("read") {
                Some(snap) => {
                    probe.load_bytes(snap.field("G").unwrap()).unwrap();
                    snap.count as usize
                }
                None => 0,
            }
        } else {
            0
        };
        (it, probe)
    };
    let (start_iter, restored) = restart_iter;
    store.set_marker().expect("marker");
    let restored_bytes = (start_iter > 0).then(|| restored.save_bytes());

    let store_ref = &store;
    let restored_ref = &restored_bytes;
    let mut checksums: Vec<Option<f64>> = vec![None; nranks];
    std::thread::scope(|s| {
        for (rank, slot) in checksums.iter_mut().enumerate() {
            let net = net.clone();
            let p = p.clone();
            s.spawn(move || {
                let ep = Endpoint::new(net, rank);
                let g = SharedGrid::new(n, n, 0.0f64);
                fill_grid(&g, p.seed);
                if let Some(bytes) = restored_ref {
                    g.load_bytes(bytes).unwrap();
                }
                let own = block_owned(n, nranks, rank);
                let mut done = start_iter;
                for it in start_iter..sweeps {
                    for color in 0..2usize {
                        let to_prev = (rank > 0).then(|| g.extract(own.start..own.start + 1));
                        let to_next = (rank + 1 < nranks).then(|| g.extract(own.end - 1..own.end));
                        let (from_prev, from_next) = ep.halo_exchange(to_prev, to_next);
                        if let Some(bytes) = from_prev {
                            g.install(own.start - 1..own.start, &bytes).unwrap();
                        }
                        if let Some(bytes) = from_next {
                            g.install(own.end..own.end + 1, &bytes).unwrap();
                        }
                        for i in own.start.max(interior.start)..own.end.min(interior.end) {
                            relax_grid_row(&g, i, color, p.omega);
                        }
                    }
                    done = it + 1;
                    // invasive master-collect checkpoint
                    if every > 0 && done % every == 0 {
                        let mine = g.extract(own.clone());
                        if let Some(all) = ep.gather(0, mine) {
                            for (r, payload) in all.into_iter().enumerate() {
                                if r != 0 {
                                    g.install(block_owned(n, nranks, r), &payload).unwrap();
                                }
                            }
                            write_invasive_snapshot(store_ref, &g, done as u64);
                        }
                    }
                    if Some(done) == p.fail_after {
                        break;
                    }
                }
                // final gather
                let mine = g.extract(own.clone());
                if let Some(all) = ep.gather(0, mine) {
                    for (r, payload) in all.into_iter().enumerate() {
                        if r != 0 {
                            g.install(block_owned(n, nranks, r), &payload).unwrap();
                        }
                    }
                    *slot = Some(g.sum_f64());
                }
                let _ = done;
            });
        }
    });

    if p.fail_after.is_none() {
        store.clear_marker().expect("marker clear");
    }
    SorResult {
        checksum: checksums[0].expect("root checksum"),
        iterations_done: p.fail_after.unwrap_or(p.iterations),
        iter_times: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sor::sor_seq;

    fn params() -> SorParams {
        SorParams::new(33, 6)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ppar_sorb_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn threads_baseline_matches_seq() {
        let reference = sor_seq(&params());
        for t in [1, 2, 4, 6] {
            assert_eq!(sor_threads(&params(), t).checksum, reference.checksum);
        }
    }

    #[test]
    fn dist_baseline_matches_seq() {
        let reference = sor_seq(&params());
        for ranks in [1, 2, 4] {
            let cfg = SpmdConfig::instant(ranks);
            assert_eq!(sor_dist(&params(), &cfg).checksum, reference.checksum);
        }
    }

    #[test]
    fn grids_without_interior_keep_their_initial_values_in_every_variant() {
        let cfg = SpmdConfig::instant(2);
        for n in 0..3 {
            let p = SorParams::new(n, 3);
            let initial = sor_seq(&p).checksum.to_bits();
            let dir = tmpdir(&format!("tiny{n}"));
            let variants = [
                ("threads", sor_threads(&p, 2)),
                ("dist", sor_dist(&p, &cfg)),
                ("seq_invasive", sor_seq_invasive(&p, 2, &dir.join("s"))),
                (
                    "threads_invasive",
                    sor_threads_invasive(&p, 2, 2, &dir.join("t")),
                ),
                (
                    "dist_invasive",
                    sor_dist_invasive(&p, &cfg, 2, &dir.join("d")),
                ),
            ];
            for (name, result) in variants {
                assert_eq!(result.checksum.to_bits(), initial, "{name} n={n}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn invasive_seq_checkpoint_and_restart() {
        let reference = sor_seq(&params());
        let dir = tmpdir("seq");
        // crash after 4, snapshot every 2
        let crash = sor_seq_invasive(
            &SorParams {
                fail_after: Some(4),
                ..params()
            },
            2,
            &dir,
        );
        assert_eq!(crash.iterations_done, 4);
        // restart resumes at 4 and matches
        let resumed = sor_seq_invasive(&params(), 2, &dir);
        assert_eq!(resumed.checksum, reference.checksum);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invasive_threads_checkpoint_and_restart() {
        let reference = sor_seq(&params());
        let dir = tmpdir("thr");
        sor_threads_invasive(
            &SorParams {
                fail_after: Some(4),
                ..params()
            },
            4,
            2,
            &dir,
        );
        let resumed = sor_threads_invasive(&params(), 4, 2, &dir);
        assert_eq!(resumed.checksum, reference.checksum);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invasive_dist_checkpoint_and_restart() {
        let reference = sor_seq(&params());
        let dir = tmpdir("dist");
        let cfg = SpmdConfig::instant(3);
        sor_dist_invasive(
            &SorParams {
                fail_after: Some(4),
                ..params()
            },
            &cfg,
            2,
            &dir,
        );
        let resumed = sor_dist_invasive(&params(), &cfg, 2, &dir);
        assert_eq!(resumed.checksum, reference.checksum);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
