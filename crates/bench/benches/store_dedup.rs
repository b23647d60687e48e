//! Content-addressed store bench: chunk dedup turns repeated snapshots
//! into metadata writes.
//!
//! Four measurements, each at dirty fractions 1 / 10 / 50 / 100 %:
//!
//! * **store bytes** — physical bytes a steady-state full snapshot costs
//!   the flat layout (the whole record, every time) vs the
//!   content-addressed layout (novel chunks + manifest metadata);
//! * **save wall-clock** — the same sequence, timed;
//! * **wire bytes** — a rank → root put over a loopback `TcpFabric` with
//!   a content-addressed store behind the service: the digest handshake
//!   ships only novel chunks;
//! * **GC** — wall-clock and objects swept when the dead generations are
//!   collected afterwards.
//!
//! Two acceptance gates are asserted (not just reported): at 10 % dirty,
//! the content-addressed store writes **≥ 5×** fewer bytes than flat AND
//! the wire path ships **≥ 5×** fewer bytes than a full record. Restores
//! are also checked byte-identical between the two layouts on every
//! shape.
//!
//! `PPAR_STORE_SMOKE=1` shrinks the shapes and skips the history append;
//! a full run appends to `BENCH_store.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppar_bench::json;
use ppar_ckpt::store::{FieldSource, Record, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CasConfig, CheckpointStore};
use ppar_core::shared::DIRTY_CHUNK_BYTES;
use ppar_net::{Fabric, NetTransport, TcpFabric};

const SMOKE_ENV: &str = "PPAR_STORE_SMOKE";

fn smoke() -> bool {
    std::env::var(SMOKE_ENV).ok().as_deref() == Some("1")
}

/// Snapshots per sequence: first is the cold base, the rest are steady
/// state.
const SAVES: usize = 4;

fn payload_chunks() -> usize {
    if smoke() {
        64 // 512 KiB state
    } else {
        1024 // 8 MiB state
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ppar_bench_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Aperiodic state: no two chunks dedupe by accident.
fn fresh_state(chunks: usize) -> Vec<u8> {
    (0..chunks * DIRTY_CHUNK_BYTES)
        .map(|i| (i ^ (i >> 8) ^ (i >> 16)) as u8)
        .collect()
}

/// Overwrite `percent`% of the chunks with new (still aperiodic) content.
fn dirty(state: &mut [u8], percent: usize, round: usize) {
    let chunks = state.len() / DIRTY_CHUNK_BYTES;
    let n_dirty = (chunks * percent).div_ceil(100).max(1);
    // One contiguous dirty region per save, rotating through the state:
    // applications typically mutate runs of adjacent pages, and a run
    // straddles at most one extra store chunk regardless of its length.
    let start = (round * n_dirty) % chunks;
    for d in 0..n_dirty {
        let c = (start + d) % chunks;
        let base = c * DIRTY_CHUNK_BYTES;
        for (off, b) in state[base..base + DIRTY_CHUNK_BYTES].iter_mut().enumerate() {
            let i = base + off;
            // Hash (byte index, round) so every round's dirty content is
            // unique — no chunk dedupes by accident, within or across
            // rounds.
            let x = (((i as u64) << 8) | round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            *b = (x >> 56) as u8;
        }
    }
}

fn meta(count: u64) -> SnapshotMeta {
    SnapshotMeta {
        mode_tag: "seq".into(),
        count,
        rank: None,
        nranks: 1,
    }
}

struct StoreRun {
    /// Physical store bytes of the steady-state saves (excludes the cold
    /// first save).
    steady_bytes: u64,
    /// Wall-clock of the steady-state saves.
    steady_time: Duration,
    /// The final state, for restore verification.
    record: Vec<u8>,
}

/// Drive `SAVES` full snapshots of a `chunks`-chunk state through `store`,
/// dirtying `percent`% between saves. Returns steady-state costs and the
/// final merged record bytes.
fn run_saves(store: &CheckpointStore, chunks: usize, percent: usize) -> StoreRun {
    let mut state = fresh_state(chunks);
    let mut steady_bytes = 0u64;
    let mut steady_time = Duration::ZERO;
    let _ = store.take_put_stats(); // drop any cold-open residue
    for round in 0..SAVES {
        if round > 0 {
            dirty(&mut state, percent, round);
        }
        let t0 = Instant::now();
        let written = store
            .put(&Record::Full(
                &meta(round as u64 + 1),
                &[("G", FieldSource::Bytes(&state))],
            ))
            .expect("save");
        let dt = t0.elapsed();
        let put = store.take_put_stats();
        // Physical bytes: what actually hit the medium this save.
        let physical = match store.cas() {
            Some(_) => put.bytes_stored,
            None => written,
        };
        if round > 0 {
            steady_bytes += physical;
            steady_time += dt;
        }
    }
    let mut record = Vec::new();
    store
        .write_merged_record(None, &mut record)
        .expect("restore stream")
        .expect("record present");
    StoreRun {
        steady_bytes,
        steady_time,
        record,
    }
}

/// Store-side comparison at one dirty fraction. Returns
/// `(flat_bytes, cas_bytes, flat_secs, cas_secs)` per steady-state save.
fn store_scenario(percent: usize) -> (f64, f64, f64, f64) {
    let chunks = payload_chunks();
    let flat_dir = scratch_dir(&format!("flat{percent}"));
    let cas_dir = scratch_dir(&format!("cas{percent}"));
    let flat = CheckpointStore::new_flat(&flat_dir).expect("flat store");
    let cas = CheckpointStore::new_cas_with(&cas_dir, CasConfig::default()).expect("cas store");

    let flat_run = run_saves(&flat, chunks, percent);
    let cas_run = run_saves(&cas, chunks, percent);
    assert_eq!(
        flat_run.record, cas_run.record,
        "restore must be byte-identical across layouts ({percent}% dirty)"
    );

    let steady = (SAVES - 1) as f64;
    let out = (
        flat_run.steady_bytes as f64 / steady,
        cas_run.steady_bytes as f64 / steady,
        flat_run.steady_time.as_secs_f64() / steady,
        cas_run.steady_time.as_secs_f64() / steady,
    );
    let _ = std::fs::remove_dir_all(&flat_dir);
    let _ = std::fs::remove_dir_all(&cas_dir);
    out
}

/// GC cost: populate a store with `SAVES` generations at 10% dirty, drop
/// every record, and time the sweep.
fn gc_scenario() -> (f64, u64, u64) {
    let dir = scratch_dir("gc");
    let cfg = CasConfig {
        gc_grace: Duration::ZERO, // bench sweeps immediately
        ..CasConfig::default()
    };
    let store = CheckpointStore::new_cas_with(&dir, cfg).expect("cas store");
    run_saves(&store, payload_chunks(), 10);
    // Drop every record, leaving all chunk objects unreferenced, and time
    // the sweep itself.
    let cas = store.cas().expect("cas layout");
    for name in cas.list_manifests().expect("list") {
        cas.remove_manifest(&name).expect("remove");
    }
    let t0 = Instant::now();
    let swept = cas.gc().expect("gc");
    let secs = t0.elapsed().as_secs_f64();
    let remaining = cas.object_bytes();
    let _ = std::fs::remove_dir_all(&dir);
    (secs, swept.objects_swept, remaining)
}

/// Wire dedup over a loopback `TcpFabric`: rank 1 saves a full snapshot
/// twice (dirtying `percent`% in between) through the root's
/// content-addressed store. Returns `(full_chunks, second_save_shipped)`.
fn wire_scenario(percent: usize) -> (u64, u64) {
    let chunks = payload_chunks();
    let dir = scratch_dir(&format!("wire{percent}"));
    let dir2 = dir.clone();
    let root_addr = ppar_net::free_loopback_addr().expect("loopback addr");
    let mut shipped = (0u64, 0u64);
    const DONE_TAG: u64 = (1 << 63) | 99;
    std::thread::scope(|scope| {
        let addr = &root_addr;
        scope.spawn(move || {
            let mut cfg = ppar_net::NetConfig::new(0, 2, addr.clone());
            cfg.recv_timeout = Duration::from_secs(60);
            let fabric = TcpFabric::connect(&cfg).expect("root fabric");
            let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
            let store =
                CheckpointStore::new_cas_with(&dir2, CasConfig::default()).expect("cas store");
            let inner: Arc<dyn CkptTransport> = Arc::new(store);
            let service = NetTransport::serve(dyn_fabric.clone(), 0, inner);
            dyn_fabric.recv(0, 1, DONE_TAG).expect("done");
            service.stop();
        });
        let out = &mut shipped;
        scope.spawn(move || {
            let mut cfg = ppar_net::NetConfig::new(1, 2, addr.clone());
            cfg.recv_timeout = Duration::from_secs(60);
            let fabric = TcpFabric::connect(&cfg).expect("client fabric");
            let dyn_fabric: Arc<dyn Fabric> = fabric.clone();
            let t = NetTransport::client(dyn_fabric.clone(), 1);
            let mut state = fresh_state(chunks);
            t.put(&Record::Full(
                &meta(1),
                &[("G", FieldSource::Bytes(&state))],
            ))
            .expect("first save");
            let _ = t.take_put_stats();
            dirty(&mut state, percent, 1);
            let written = t
                .put(&Record::Full(
                    &meta(2),
                    &[("G", FieldSource::Bytes(&state))],
                ))
                .expect("second save");
            let n_chunks = written.div_ceil(DIRTY_CHUNK_BYTES as u64);
            let skipped = t.take_put_stats().wire_chunks_skipped;
            *out = (n_chunks, n_chunks - skipped);
            dyn_fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    shipped
}

fn main() {
    // Criterion-style CLI args (`--bench`) are accepted and ignored: this
    // harness=false bench drives its own scenarios.
    let percents = [1usize, 10, 50, 100];
    let mut store_rows = Vec::new();
    println!(
        "store_dedup: {} chunks/state, {SAVES} saves",
        payload_chunks()
    );
    for &p in &percents {
        let (flat_b, cas_b, flat_s, cas_s) = store_scenario(p);
        let ratio = flat_b / cas_b.max(1.0);
        println!(
            "  {p:3}% dirty: flat {:.2} MB/save vs cas {:.2} MB/save ({ratio:.1}x), \
             {:.1} ms vs {:.1} ms",
            flat_b / 1e6,
            cas_b / 1e6,
            flat_s * 1e3,
            cas_s * 1e3
        );
        if p == 10 {
            assert!(
                ratio >= 5.0,
                "10%-dirty steady-state store dedup must be ≥5x (got {ratio:.2}x)"
            );
        }
        store_rows.push((p, flat_b, cas_b, flat_s, cas_s, ratio));
    }

    let mut wire_rows = Vec::new();
    for &p in &percents {
        let (total, shipped) = wire_scenario(p);
        let ratio = total as f64 / shipped.max(1) as f64;
        println!("  wire {p:3}% dirty: {shipped}/{total} chunks shipped ({ratio:.1}x)");
        if p == 10 {
            assert!(
                ratio >= 5.0,
                "10%-dirty wire dedup must ship ≥5x fewer bytes (got {ratio:.2}x)"
            );
        }
        wire_rows.push((p, total, shipped, ratio));
    }

    let (gc_secs, gc_swept, gc_left) = gc_scenario();
    println!(
        "  gc: swept {gc_swept} objects in {:.1} ms ({gc_left} bytes left)",
        gc_secs * 1e3
    );
    assert!(gc_swept > 0, "GC must reclaim the dead generations");

    if smoke() {
        println!("store_dedup: smoke mode, skipping history");
        return;
    }
    let store_json: Vec<String> = store_rows
        .iter()
        .map(|(p, fb, cb, fs, cs, r)| {
            format!(
                "      {{\"dirty_pct\": {p}, \"flat_bytes\": {fb:.0}, \"cas_bytes\": {cb:.0}, \
                 \"flat_secs\": {fs:.6}, \"cas_secs\": {cs:.6}, \"ratio\": {r:.2}}}"
            )
        })
        .collect();
    let wire_json: Vec<String> = wire_rows
        .iter()
        .map(|(p, t, s, r)| {
            format!(
                "      {{\"dirty_pct\": {p}, \"total_chunks\": {t}, \"shipped_chunks\": {s}, \
                 \"ratio\": {r:.2}}}"
            )
        })
        .collect();
    let entry = format!(
        "  {{\n    \"unix_time\": {},\n    \"chunks\": {},\n    \"saves\": {SAVES},\n    \
         \"store\": [\n{}\n    ],\n    \"wire\": [\n{}\n    ],\n    \
         \"gc_secs\": {gc_secs:.6},\n    \"gc_objects_swept\": {gc_swept}\n  }}",
        json::unix_time(),
        payload_chunks(),
        store_json.join(",\n"),
        wire_json.join(",\n"),
    );
    json::append_history("BENCH_store.json", &entry);
}
