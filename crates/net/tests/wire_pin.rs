//! Wire pin: the checkpoint service's request and response frames, byte
//! for byte.
//!
//! A recording [`Fabric`] wrapper sits on both ends of a two-rank loopback
//! session and logs every checkpoint-tagged frame (`tag`, payload) in send
//! order, one log per direction. The session drives one put of each key
//! shape — a shard delta's, which the root's store refuses, included — a
//! digest-negotiated put against a flat root (answered `ST_NODEDUP`) and
//! against a content-addressed root (only the missing chunks ride the
//! wire), a get, a count-pinned get and a get of a chain the root does not
//! hold. The log must equal `fixtures/wire_pin.txt`: a change that moves a
//! byte on the wire re-records it on purpose.
//!
//! The fixture was recorded before the transport surface was rebuilt around
//! `RecordKey` / `begin` / `put`, and re-recorded once since, when the wire
//! went from one opcode per key shape (twelve) to one per seam call (four:
//! put, digest-negotiated put, get, stop), each carrying its key in the
//! request body. That re-recording changed only the request frames and
//! dropped the steps of the control requests that went with it (the
//! restart count and the delta clears); every record byte and every reply
//! stayed as it was. It was re-recorded a second time when shards stopped
//! growing chains: the shard delta's request and data frames stayed as
//! they were, the root now answers them with its store's refusal, and the
//! shard's reads serve its one full record (the pinned one at that
//! record's count). It was re-recorded a third time when a put the root's
//! store refuses at its begin began to stop its client within one credit
//! window: the refused shard delta's one credit frame, root to rank, now
//! carries the refusal (the count `u64::MAX`, then the store's error) in
//! place of the final credit `1`; its request, data and end frames and
//! its error response stayed as they were, and so did every other frame.
//!
//! One `#[test]` in this binary on purpose: stream ids come from a
//! process-wide counter and are part of the pinned bytes.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ppar_ckpt::store::{DeltaSource, FieldSource, Record, Snapshot, SnapshotMeta};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CasConfig, CheckpointStore, ChunkDigest, DeltaMeta};
use ppar_core::error::Result;
use ppar_core::shared::SharedVec;
use ppar_net::{free_loopback_addr, Fabric, NetConfig, NetTransport, Payload, TcpFabric, Traffic};

/// The transport calls the session makes, in one place.
mod api {
    use super::*;

    pub fn put_full(
        t: &dyn CkptTransport,
        meta: &SnapshotMeta,
        fields: &[(&str, FieldSource<'_>)],
    ) -> u64 {
        t.put(&Record::Full(meta, fields)).expect("full put")
    }

    pub fn put_delta(
        t: &dyn CkptTransport,
        meta: &DeltaMeta,
        fields: &[(&str, DeltaSource<'_>)],
    ) -> Result<u64> {
        t.put(&Record::Delta(meta, fields))
    }

    pub fn get(t: &dyn CkptTransport, rank: Option<u32>, at: Option<u64>) -> Option<Snapshot> {
        t.get(rank, at).expect("get")
    }
}

/// Tag-space bit of checkpoint service frames (`ppar_net::transport`).
const CKPT_TAG_BIT: u64 = 1 << 62;
const DONE_TAG: u64 = (1 << 63) | 0x91e;

/// Logs every checkpoint frame this endpoint sends to the *other* rank.
struct Recording {
    inner: Arc<dyn Fabric>,
    log: Arc<Mutex<String>>,
}

impl Fabric for Recording {
    fn describe(&self) -> &'static str {
        "recording"
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn send(&self, src: usize, dst: usize, tag: u64, payload: Payload) {
        if tag & CKPT_TAG_BIT != 0 && src != dst {
            let mut log = self.log.lock().unwrap();
            write!(log, "{src}>{dst} {tag:016x} ").unwrap();
            if payload.len() <= 64 {
                writeln!(log, "{}", hex(&payload)).unwrap();
            } else {
                writeln!(
                    log,
                    "len={} digest={} head={}",
                    payload.len(),
                    ChunkDigest::of(&payload).to_hex(),
                    hex(&payload[..32])
                )
                .unwrap();
            }
        }
        self.inner.send(src, dst, tag, payload)
    }
    fn recv(&self, dst: usize, src: usize, tag: u64) -> Result<Payload> {
        self.inner.recv(dst, src, tag)
    }
    fn recv_any(&self, dst: usize, tag: u64) -> Result<(usize, Payload)> {
        self.inner.recv_any(dst, tag)
    }
    fn probe(&self, dst: usize, src: usize, tag: u64) -> bool {
        self.inner.probe(dst, src, tag)
    }
    fn traffic(&self) -> Traffic {
        self.inner.traffic()
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Both directions' logs; `step` labels what follows in each.
#[derive(Clone, Default)]
struct Logs {
    client: Arc<Mutex<String>>,
    root: Arc<Mutex<String>>,
}

impl Logs {
    fn step(&self, name: &str) {
        for log in [&self.client, &self.root] {
            writeln!(log.lock().unwrap(), "# {name}").unwrap();
        }
    }
}

/// Run `ops` as rank 1 against a service on rank 0 forwarding into `inner`.
fn session(logs: &Logs, inner: Arc<dyn CkptTransport>, ops: impl FnOnce(&NetTransport) + Send) {
    let addr = free_loopback_addr().unwrap();
    let connect = |rank: usize, log: &Arc<Mutex<String>>| -> Arc<dyn Fabric> {
        let mut cfg = NetConfig::new(rank, 2, addr.clone());
        cfg.recv_timeout = Duration::from_secs(30);
        Arc::new(Recording {
            inner: TcpFabric::connect(&cfg).unwrap(),
            log: log.clone(),
        })
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let fabric = connect(0, &logs.root);
            let service = NetTransport::serve(fabric.clone(), 0, inner);
            fabric.recv(0, 1, DONE_TAG).unwrap();
            service.stop();
        });
        scope.spawn(|| {
            let fabric = connect(1, &logs.client);
            ops(&NetTransport::client(fabric.clone(), 1));
            fabric.send(1, 0, DONE_TAG, Arc::new(Vec::new()));
        });
    });
}

fn meta(count: u64, rank: Option<u32>) -> SnapshotMeta {
    SnapshotMeta {
        mode_tag: "tcp2".into(),
        count,
        rank,
        nranks: 2,
    }
}

fn delta_meta(count: u64, base_count: u64, seq: u32, rank: Option<u32>) -> DeltaMeta {
    DeltaMeta {
        mode_tag: "tcp2".into(),
        count,
        base_count,
        seq,
        rank,
        nranks: 2,
    }
}

fn payload(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(salt) >> 13) as u8)
        .collect()
}

#[test]
#[allow(clippy::single_range_in_vec_init)] // dirty ranges are span data
fn checkpoint_service_frames_match_the_recorded_fixture() {
    let tmp = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let flat_dir = tmp.join(format!("wire_pin_flat_{}", std::process::id()));
    let cas_dir = tmp.join(format!("wire_pin_cas_{}", std::process::id()));
    for d in [&flat_dir, &cas_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let logs = Logs::default();
    let g = payload(600, 1);
    let mut patched = g.clone();
    patched[16..24].fill(0xEE);
    let patched = SharedVec::from_vec(patched);

    logs.step("flat root");
    let flat = CheckpointStore::new_flat(&flat_dir).unwrap();
    session(&logs, Arc::new(flat), |t| {
        logs.step("dedup put master, flat root: ST_NODEDUP then the plain put");
        api::put_full(t, &meta(10, None), &[("G", FieldSource::Bytes(&g))]);
        logs.step("put master");
        api::put_full(t, &meta(10, None), &[("G", FieldSource::Bytes(&g))]);
        logs.step("put shard 1");
        api::put_full(t, &meta(10, Some(1)), &[("G", FieldSource::Bytes(&g))]);
        logs.step("put master delta 1");
        let sparse = DeltaSource::DirtyCell {
            cell: &patched,
            ranges: &[16..24],
        };
        api::put_delta(t, &delta_meta(12, 10, 1, None), &[("G", sparse)]).expect("delta put");
        logs.step("put shard 1 delta 1: refused");
        let whole = DeltaSource::Full(FieldSource::Bytes(&g[..100]));
        let refused = api::put_delta(t, &delta_meta(12, 10, 1, Some(1)), &[("G", whole)]);
        assert!(refused.is_err(), "a shard delta is refused");
        logs.step("get master");
        assert_eq!(api::get(t, None, None).unwrap().count, 12);
        logs.step("get shard 1");
        assert_eq!(api::get(t, Some(1), None).unwrap().count, 10);
        logs.step("get shard 1 at 10");
        assert_eq!(api::get(t, Some(1), Some(10)).unwrap().count, 10);
        logs.step("get shard 7: absent");
        assert!(api::get(t, Some(7), None).is_none());
    });

    logs.step("content-addressed root");
    let cas = CheckpointStore::new_cas_with(&cas_dir, CasConfig::default()).unwrap();
    session(&logs, Arc::new(cas), |t| {
        // Three store chunks and a tail; the second save dirties one.
        let mut big = payload(3 * 8192 + 500, 2);
        logs.step("dedup put master: every chunk missing");
        api::put_full(t, &meta(20, None), &[("G", FieldSource::Bytes(&big))]);
        for b in &mut big[9000..9100] {
            *b ^= 0xFF;
        }
        logs.step("dedup put master: one payload chunk dirtied");
        api::put_full(t, &meta(30, None), &[("G", FieldSource::Bytes(&big))]);
        logs.step("dedup put shard 1");
        api::put_full(t, &meta(30, Some(1)), &[("G", FieldSource::Bytes(&big))]);
        logs.step("get master");
        let snap = api::get(t, None, None).unwrap();
        assert_eq!((snap.count, snap.field("G").unwrap()), (30, big.as_slice()));
    });

    let mut actual = String::from("## rank 1 to rank 0\n");
    actual.push_str(&logs.client.lock().unwrap());
    actual.push_str("## rank 0 to rank 1\n");
    actual.push_str(&logs.root.lock().unwrap());
    for d in [&flat_dir, &cas_dir] {
        let _ = std::fs::remove_dir_all(d);
    }

    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_pin.txt");
    let expected = std::fs::read_to_string(&fixture).unwrap_or_default();
    if actual != expected {
        let dump = tmp.join("wire_pin.actual.txt");
        std::fs::write(&dump, &actual).unwrap();
        panic!(
            "checkpoint wire frames differ from {}; this run's frames are in {}",
            fixture.display(),
            dump.display()
        );
    }
}
