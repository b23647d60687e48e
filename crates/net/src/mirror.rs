//! Survivor-local checkpoint mirror: the fast restore lane of single-rank
//! recovery.
//!
//! When a rank dies mid-run, *every* rank rolls back to the last
//! group-committed safe point — the rejoined newcomer restores its shard
//! over the network from the root's durable store, but the survivors
//! already streamed that exact shard generation out of their own memory
//! moments ago. [`MirrorTransport`] keeps the last two full shard records
//! a rank saved in local [`MemTransport`] slots (two, because a rank can
//! have saved generation `N+1` while the group commit still points at
//! `N` — the torn-checkpoint case), so a survivor's count-pinned restore
//! (`CkptTransport::with_merged(rank, Some(count), ..)`) is lent straight
//! out of local memory instead of making a root round-trip. Recovery
//! traffic then scales with the *one* lost shard, not the whole aggregate.
//!
//! The network transport stays the durability authority: the mirror's sink
//! tees the record's bytes to the network sink and a local slot, and the
//! network sink's verdict is what the caller sees; the local copy is
//! opportunistic. A failed network put wipes the mirror — after a
//! fault the local generations can no longer be trusted to match what the
//! root will serve, and a stale hit here would restore state diverging
//! from the group. A shard is saved as one full record at every save, so
//! every save a slot sees is a generation it can serve: the mirror serves
//! exact-count hits, and the network everything else.
//!
//! The mirror only moves records, like every medium: a slot holds the very
//! bytes the root stores, CRC trailer included, and what a save cost in
//! chunks and wire dedup is the network's to report
//! (`CkptTransport::take_put_stats` drains it).

use std::io::Write;
use std::sync::Arc;

use ppar_ckpt::transport::{CkptTransport, RecordKey, RecordSink, Superseded};
use ppar_ckpt::{MemTransport, PutStats, SnapshotView};
use ppar_core::error::Result;
use ppar_core::sync::{AtomicU64, AtomicUsize, Ordering};

/// A [`CkptTransport`] that forwards everything to an inner (network)
/// transport while teeing full shard saves into two alternating local
/// in-memory generations, serving count-pinned shard restores locally
/// when a generation matches. See the [module docs](self).
pub struct MirrorTransport {
    net: Arc<dyn CkptTransport>,
    slots: [MemTransport; 2],
    /// Slot the next full-shard save overwrites (the older generation).
    next: AtomicUsize,
    local_hits: AtomicU64,
}

impl MirrorTransport {
    /// Wrap `net`, mirroring full shard saves locally.
    pub fn new(net: Arc<dyn CkptTransport>) -> MirrorTransport {
        MirrorTransport {
            net,
            slots: [MemTransport::new(), MemTransport::new()],
            next: AtomicUsize::new(0),
            local_hits: AtomicU64::new(0),
        }
    }

    /// Count-pinned restores served from the local mirror so far. Asserted
    /// only by this module's unit tests; no soak or bench reads it yet.
    pub fn local_hits(&self) -> u64 {
        self.local_hits.load(Ordering::Relaxed)
    }

    /// The two local generations, each a whole shard record as the root
    /// stores it (empty before the first full shard save, and after a
    /// wipe).
    pub fn slots(&self) -> &[MemTransport; 2] {
        &self.slots
    }

    /// Drop both local generations (a fault boundary: the network store
    /// is the only trusted source until the next successful save).
    fn wipe(&self) {
        for slot in &self.slots {
            slot.clear();
        }
    }
}

/// The mirror's sink for shard records: every byte goes to the network
/// sink, whose verdict is the caller's; the record is copied into the
/// older local slot on the same pass.
struct TeeSink<'a> {
    mirror: &'a MirrorTransport,
    net: Box<dyn RecordSink + 'a>,
    slot: usize,
    /// The slot's sink while the local copy is intact.
    local: Option<Box<dyn RecordSink + 'a>>,
}

impl Write for TeeSink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let n = self.net.write(bytes)?;
        if let Some(local) = &mut self.local {
            if local.write_all(&bytes[..n]).is_err() {
                self.local = None;
            }
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.net.flush()
    }
}

impl RecordSink for TeeSink<'_> {
    fn commit(self: Box<Self>) -> Result<Superseded> {
        let TeeSink {
            mirror,
            net,
            slot,
            local,
        } = *self;
        let written = net.commit().inspect_err(|_| mirror.wipe())?;
        if local.is_some_and(|local| local.commit().is_ok()) {
            mirror.next.store(slot ^ 1, Ordering::Relaxed);
        } else {
            // Local tee failure only disables the fast lane.
            mirror.slots[slot].clear();
        }
        Ok(written)
    }

    fn abort(self: Box<Self>, why: &str) {
        self.net.abort(why);
        self.mirror.wipe();
    }
}

impl CkptTransport for MirrorTransport {
    fn describe(&self) -> &'static str {
        "mirror"
    }

    fn begin<'a>(&'a self, key: RecordKey, len_hint: u64) -> Result<Box<dyn RecordSink + 'a>> {
        let net = self.net.begin(key, len_hint).inspect_err(|_| self.wipe())?;
        if key.rank.is_none() {
            return Ok(net);
        }
        let slot = self.next.load(Ordering::Relaxed);
        let local = self.slots[slot].begin(key, len_hint).ok();
        Ok(Box::new(TeeSink {
            mirror: self,
            net,
            slot,
            local,
        }))
    }

    /// A count-pinned shard read asks the local slots first. A slot that
    /// cannot serve the pin says so from record headers, before `read`
    /// runs and without touching a payload. Once a slot has run `read`,
    /// its outcome is final: an install that failed half-way is not
    /// followed by a second one from the network's record.
    fn with_merged(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool> {
        if rank.is_some() && at.is_some() {
            for slot in &self.slots {
                let mut hit = false;
                let outcome = slot.with_merged(rank, at, &mut |view| {
                    hit = true;
                    read(view)
                });
                if hit {
                    self.local_hits.fetch_add(1, Ordering::Relaxed);
                    return outcome;
                }
            }
        }
        self.net.with_merged(rank, at, read)
    }

    /// The slots keep no chunks: every counter is the network's.
    fn take_put_stats(&self) -> PutStats {
        self.net.take_put_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_ckpt::store::{DeltaSource, FieldSource, Record, SnapshotMeta};
    use ppar_ckpt::{CheckpointStore, DeltaMeta};
    use ppar_core::error::PparError;

    fn shard_meta(count: u64, rank: u32) -> SnapshotMeta {
        SnapshotMeta {
            mode_tag: "tcp4".into(),
            count,
            rank: Some(rank),
            nranks: 4,
        }
    }

    fn put(t: &MirrorTransport, count: u64, rank: u32, payload: &[u8]) {
        t.put(&Record::Full(
            &shard_meta(count, rank),
            &[("G", FieldSource::Bytes(payload))],
        ))
        .unwrap();
    }

    #[test]
    fn serves_last_two_generations_locally() {
        let net = Arc::new(MemTransport::new());
        let mirror = MirrorTransport::new(net.clone());
        put(&mirror, 10, 2, &[1u8; 64]);
        put(&mirror, 20, 2, &[2u8; 64]);
        put(&mirror, 30, 2, &[3u8; 64]);

        // The two newest generations hit the mirror...
        assert_eq!(
            mirror.get(Some(2), Some(30)).unwrap().unwrap().field("G"),
            Some(&[3u8; 64][..])
        );
        assert_eq!(
            mirror.get(Some(2), Some(20)).unwrap().unwrap().field("G"),
            Some(&[2u8; 64][..])
        );
        assert_eq!(mirror.local_hits(), 2);

        // ...the evicted one falls through to the network store, whose
        // chain tip (30) no longer matches — the count pin catches it.
        assert!(mirror.get(Some(2), Some(10)).is_err());
        assert_eq!(mirror.local_hits(), 2);
    }

    /// A network stand-in over memory: fails the next shard `begin` when
    /// told to, counts the reads that reach it, and reports `stats` on
    /// every drain.
    #[derive(Default)]
    struct FailNext {
        inner: MemTransport,
        fail: ppar_core::sync::AtomicBool,
        reads: AtomicU64,
        stats: PutStats,
    }

    impl CkptTransport for FailNext {
        fn describe(&self) -> &'static str {
            "failnext"
        }
        fn begin<'a>(&'a self, key: RecordKey, len_hint: u64) -> Result<Box<dyn RecordSink + 'a>> {
            if key.rank.is_some() && self.fail.swap(false, Ordering::SeqCst) {
                return Err(PparError::Network("peer rank 0 is down".into()));
            }
            self.inner.begin(key, len_hint)
        }
        fn with_merged(
            &self,
            rank: Option<u32>,
            at: Option<u64>,
            read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
        ) -> Result<bool> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.inner.with_merged(rank, at, read)
        }
        fn take_put_stats(&self) -> PutStats {
            self.stats
        }
    }

    /// A save's dedup counters are the network's: the mirror drains them
    /// from it.
    #[test]
    fn put_stats_are_the_networks() {
        let stats = PutStats {
            chunks_written: 3,
            chunks_deduped: 5,
            bytes_deduped: 40_960,
            wire_chunks_skipped: 7,
            bytes_stored: 24_600,
        };
        let net = Arc::new(FailNext {
            stats,
            ..FailNext::default()
        });
        let mirror = MirrorTransport::new(net);
        put(&mirror, 10, 1, &[7u8; 32]);
        assert_eq!(mirror.take_put_stats(), stats);
    }

    #[test]
    fn network_put_failure_wipes_the_mirror() {
        let net = Arc::new(FailNext::default());
        let mirror = MirrorTransport::new(net.clone());
        put(&mirror, 10, 1, &[7u8; 32]);
        assert_eq!(mirror.get(Some(1), Some(10)).unwrap().unwrap().count, 10);
        assert_eq!(mirror.local_hits(), 1);

        net.fail.store(true, Ordering::SeqCst);
        let err = mirror.put(&Record::Full(
            &shard_meta(20, 1),
            &[("G", FieldSource::Bytes(&[8u8; 32]))],
        ));
        assert!(err.is_err());

        // The mirror is gone; the restore goes to the network store
        // (which still holds generation 10 from the first save).
        assert_eq!(mirror.get(Some(1), Some(10)).unwrap().unwrap().count, 10);
        assert_eq!(mirror.local_hits(), 1, "no further local hits");
    }

    /// A shard delta is refused by the store behind the network, so the
    /// put fails and, as after any failed network put, the mirror is
    /// wiped: the store's record, still the last full one, serves.
    #[test]
    fn a_shard_delta_is_refused_and_the_store_serves() {
        let dir = std::env::temp_dir().join(format!("ppar_mirror_delta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mirror = MirrorTransport::new(Arc::new(CheckpointStore::new_flat(&dir).unwrap()));
        put(&mirror, 10, 3, &[1u8; 16]);
        let dm = DeltaMeta {
            mode_tag: "tcp4".into(),
            count: 20,
            base_count: 10,
            seq: 1,
            rank: Some(3),
            nranks: 4,
        };
        let refused = mirror.put(&Record::Delta(
            &dm,
            &[("G", DeltaSource::Full(FieldSource::Bytes(&[2u8; 16])))],
        ));
        assert!(
            matches!(refused, Err(PparError::InvalidPlan(_))),
            "{refused:?}"
        );
        let key = RecordKey::full(Some(3));
        assert!(mirror
            .slots()
            .iter()
            .all(|slot| slot.record_bytes(key).is_none()));
        assert_eq!(mirror.get(Some(3), Some(10)).unwrap().unwrap().count, 10);
        assert_eq!(mirror.local_hits(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pinned read that misses both slots is decided from their record
    /// headers: no slot runs `read`, the network's record is lent to it
    /// exactly once. (That a miss copies no payload either is counted in
    /// `ppar-ckpt`'s `restore_allocs` test, on the slots' medium.)
    #[test]
    fn pinned_miss_runs_read_once_on_the_network_record() {
        let net = Arc::new(FailNext::default());
        let mirror = MirrorTransport::new(net.clone());
        put(&mirror, 10, 2, &[1u8; 64]);
        put(&mirror, 20, 2, &[2u8; 64]);
        put(&mirror, 30, 2, &[3u8; 64]);
        put(&mirror, 40, 2, &[4u8; 64]);
        // The slots now hold 30 and 40; the network store's tip is 40 too,
        // so a pin at 20 misses everywhere and a pin at 40 hits locally.
        let calls = std::cell::Cell::new(0);
        let mut count = |view: &SnapshotView<'_>| {
            calls.set(calls.get() + 1);
            assert_eq!(view.meta.count, 40);
            Ok(())
        };
        assert!(mirror.with_merged(Some(2), Some(20), &mut count).is_err());
        assert_eq!(
            (mirror.local_hits(), net.reads.load(Ordering::SeqCst)),
            (0, 1)
        );
        assert!(mirror.with_merged(Some(2), Some(40), &mut count).unwrap());
        assert_eq!(
            (mirror.local_hits(), net.reads.load(Ordering::SeqCst)),
            (1, 1)
        );
        assert_eq!(calls.get(), 1, "the miss ran no `read`, the hit ran one");

        // An unpinned read is the network's business alone.
        assert!(mirror.with_merged(Some(2), None, &mut count).unwrap());
        assert_eq!((calls.get(), net.reads.load(Ordering::SeqCst)), (2, 2));
    }

    /// A `read` that fails on a local hit surfaces its error once: the
    /// half-done install is not followed by a second one from the
    /// network's record.
    #[test]
    fn failed_read_on_a_local_hit_is_not_retried_on_the_network() {
        let net = Arc::new(FailNext::default());
        let mirror = MirrorTransport::new(net.clone());
        put(&mirror, 10, 1, &[7u8; 32]);
        let mut calls = 0;
        let outcome = mirror.with_merged(Some(1), Some(10), &mut |_| {
            calls += 1;
            Err(PparError::CorruptCheckpoint(
                "cell refused the bytes".into(),
            ))
        });
        assert!(
            matches!(outcome, Err(PparError::CorruptCheckpoint(msg)) if msg.contains("refused"))
        );
        assert_eq!(calls, 1);
        assert_eq!(
            net.reads.load(Ordering::SeqCst),
            0,
            "the network was not asked"
        );
        assert_eq!(mirror.local_hits(), 1, "the slot did serve the pin");
    }
}
