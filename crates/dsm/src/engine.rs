//! Rank-level data movement of one aggregate element (object aggregates,
//! §III.C).
//!
//! One `DsmEngine` instance runs per aggregate element (simulated process
//! or real one), as the component the element's
//! [`HybridEngine`](crate::hybrid::HybridEngine) delegates every
//! plan-driven transfer to — it is not an [`ppar_core::ctx::Engine`]
//! itself:
//!
//! * `ScatterBefore`/`GatherAfter`/`BroadcastBefore`/`ReduceAfter` wrap
//!   method join points;
//! * `UpdateAt` actions (halo exchange, gather, scatter, all-reduce) fire at
//!   named execution points — "we specify the points in execution where
//!   data is partitioned and scattered, gathered and updated".
//!
//! Checkpointing (§IV.A) supports both strategies: **master-collect**
//! (partitioned safe data is gathered at element 0, which writes one
//! mode-independent snapshot — no barriers needed, restartable in any mode)
//! and **local-snapshot** (each element persists its own partition between
//! two global barriers; restart requires the same element count). Either
//! way the elements then all-reduce whether every save held, so a failed
//! save ends the attempt on all of them. A master-collect gather moves
//! plain index ranges (`gather_field`), never a checkpoint
//! record: the record formats belong to the checkpoint module behind
//! [`CkptHook`].
//!
//! Memory layout note (documented substitution): every element allocates
//! the *full* index space of partitioned fields and touches only its owned
//! range (plus halos). Network costs are charged only for bytes actually
//! moved, so the performance shape matches a distributed-allocation
//! implementation while keeping scatter/gather/halo logic uniform.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ppar_core::ctx::{CkptHook, Ctx, Installed};
use ppar_core::error::{PparError, Result};
use ppar_core::partition::{block_owned, owned_ranges, scatter_ranges, Partition};
use ppar_core::plan::{DistCkptStrategy, Plan, ReduceOp, UpdateAction};
use ppar_core::state::DistCell;

use crate::collective::Endpoint;

/// Per-element data movement for distributed execution.
pub struct DsmEngine {
    ep: Endpoint,
    /// Reused serialization buffer for whole-field broadcasts (the
    /// master-collect restore path re-broadcasts every replicated field;
    /// streaming cells into one persistent buffer keeps that loop
    /// allocation-free at the root).
    scratch: ppar_core::sync::Mutex<Vec<u8>>,
}

impl DsmEngine {
    /// Data movement for one aggregate element.
    pub fn new(ep: Endpoint) -> Arc<DsmEngine> {
        Arc::new(DsmEngine {
            ep,
            scratch: ppar_core::sync::Mutex::new(Vec::new()),
        })
    }

    /// The element's endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    fn partition_of(&self, plan: &Plan, field: &str) -> Partition {
        plan.field_partition(field).unwrap_or_else(|| {
            panic!("field {field:?} used in a distributed plug but not declared Partitioned")
        })
    }

    /// `out` followed by the concatenated bytes of `ranges`, sized for them
    /// up front: a gather of a multi-MiB block pays no growth reallocs.
    fn extract_ranges(cell: &dyn DistCell, ranges: Vec<Range<usize>>, mut out: Vec<u8>) -> Vec<u8> {
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        out.reserve_exact(total * cell.index_bytes());
        for r in ranges {
            cell.extract_into(r, &mut out);
        }
        out
    }

    /// Inverse of [`DsmEngine::extract_ranges`].
    fn install_ranges(cell: &dyn DistCell, ranges: Vec<Range<usize>>, bytes: &[u8]) {
        let mut offset = 0;
        for r in ranges {
            let len = r.len() * cell.index_bytes();
            cell.install(r, &bytes[offset..offset + len])
                .expect("range install failed");
            offset += len;
        }
        assert_eq!(offset, bytes.len(), "payload length mismatch");
    }

    /// Scatter `field` from the root: every other element receives its
    /// [`scatter_ranges`] — the owned ranges, widened by `halo` for a
    /// stencil field (post-restore refresh). The root's own slot is empty:
    /// its copy already holds what the scatter would deliver.
    pub(crate) fn scatter_field(&self, ctx: &Ctx, field: &str, halo: usize) {
        let partition = self.partition_of(ctx.plan(), field);
        let cell = ctx
            .registry()
            .dist(field)
            .expect("scatter field registered");
        let (n, rank) = (self.ep.nranks(), self.ep.rank());
        let ranges = |r| scatter_ranges(partition, cell.logical_len(), n, r, halo);
        let payloads = (rank == 0).then(|| {
            (0..n)
                .map(|r| match r {
                    0 => Vec::new(),
                    _ => DsmEngine::extract_ranges(&*cell, ranges(r), Vec::new()),
                })
                .collect::<Vec<_>>()
        });
        let mine = self.ep.scatter(0, payloads);
        if rank != 0 {
            DsmEngine::install_ranges(&*cell, ranges(rank), &mine);
        }
    }

    /// Gather `field`'s partitions into the root's full copy. Every other
    /// element ships one range payload: the range count, each range's
    /// `(start, end)` indices, then the ranges' bytes. It covers the
    /// element's owned ranges, or with `dirty` only what the element wrote
    /// since the last save ([`DsmEngine::sent_ranges`]). The root checks
    /// each payload against its sender's owned ranges and installs it,
    /// which marks its own write tracking: the master record that follows
    /// (a delta, or a full record's patch and block CRCs) follows the union
    /// of the peers' changes. The root's own block is already in place.
    pub(crate) fn gather_field(&self, ctx: &Ctx, field: &str, dirty: bool) {
        let partition = self.partition_of(ctx.plan(), field);
        let cell = ctx.registry().dist(field).expect("gather field registered");
        let (n, rank) = (self.ep.nranks(), self.ep.rank());
        let owned = |r| owned_ranges(partition, cell.logical_len(), n, r);
        let mine = match rank {
            0 => Vec::new(),
            _ => {
                let ranges = DsmEngine::sent_ranges(&*cell, owned(rank), dirty);
                let mut head = Vec::with_capacity(8 + 16 * ranges.len());
                head.extend((ranges.len() as u64).to_le_bytes());
                for r in &ranges {
                    head.extend((r.start as u64).to_le_bytes());
                    head.extend((r.end as u64).to_le_bytes());
                }
                DsmEngine::extract_ranges(&*cell, ranges, head)
            }
        };
        if let Some(all) = self.ep.gather(0, mine) {
            for (r, payload) in all.iter().enumerate().skip(1) {
                let (ranges, bytes) =
                    DsmEngine::payload_ranges(payload, &owned(r), cell.index_bytes());
                DsmEngine::install_ranges(&*cell, ranges, bytes);
            }
        }
    }

    /// What an element owning `owned` of `cell` sends in a gather: `owned`,
    /// or with `dirty` its dirty byte ranges clamped to its owned block and
    /// widened to whole indices (chunk boundaries need not align with
    /// index strides, e.g. grid rows). A non-block partition or an
    /// untracked cell sends `owned` whole.
    fn sent_ranges(
        cell: &dyn DistCell,
        owned: Vec<Range<usize>>,
        dirty: bool,
    ) -> Vec<Range<usize>> {
        let written = dirty.then(|| cell.dirty_ranges()).flatten();
        let (Some(written), [block]) = (written, &owned[..]) else {
            return owned;
        };
        let ib = cell.index_bytes();
        let mut ranges: Vec<Range<usize>> = Vec::new();
        for r in written {
            let start = r.start.max(block.start * ib);
            let end = r.end.min(block.end * ib);
            if start >= end {
                continue;
            }
            let (is, ie) = (start / ib, end.div_ceil(ib));
            // Widening may make neighbours overlap: coalesce them.
            match ranges.last_mut() {
                Some(last) if is <= last.end => last.end = last.end.max(ie),
                _ => ranges.push(is..ie),
            }
        }
        ranges
    }

    /// The ranges a gather payload names and the bytes after them. Panics,
    /// as [`DsmEngine::install_ranges`] does on a length mismatch, when the
    /// ranges are unsorted, overlap or leave `owned` (the sender's owned
    /// ranges, sorted), or when the bytes are not theirs.
    fn payload_ranges<'p>(
        payload: &'p [u8],
        owned: &[Range<usize>],
        ib: usize,
    ) -> (Vec<Range<usize>>, &'p [u8]) {
        let word = |i: usize| {
            let bytes = payload
                .get(8 * i..8 * i + 8)
                .expect("gather payload truncated");
            u64::from_le_bytes(bytes.try_into().unwrap()) as usize
        };
        let count = word(0);
        assert!(
            count <= (payload.len() - 8) / 16,
            "gather payload names {count} ranges in {} bytes",
            payload.len()
        );
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(count);
        let mut owned = owned.iter().peekable();
        let mut len = 0;
        for i in 0..count {
            let r = word(1 + 2 * i)..word(2 + 2 * i);
            let after = ranges.last().map_or(0, |last| last.end);
            assert!(
                after <= r.start && r.start < r.end,
                "gather payload ranges unsorted or overlapping at {r:?}"
            );
            while owned.next_if(|o| o.end <= r.start).is_some() {}
            assert!(
                owned
                    .peek()
                    .is_some_and(|o| o.start <= r.start && r.end <= o.end),
                "gather payload range {r:?} leaves its sender's owned ranges"
            );
            len += r.len() * ib;
            ranges.push(r);
        }
        let bytes = &payload[8 + 16 * count..];
        assert_eq!(bytes.len(), len, "payload length mismatch");
        (ranges, bytes)
    }

    /// Broadcast a replicated `field` from the root.
    pub(crate) fn broadcast_field(&self, ctx: &Ctx, field: &str) {
        let cell = ctx
            .registry()
            .state(field)
            .expect("broadcast field registered");
        if self.ep.rank() == 0 {
            // Serialize the cell into the reused scratch buffer instead of
            // materializing a fresh Vec per broadcast.
            let mut scratch = self.scratch.lock();
            scratch.clear();
            cell.save_into(&mut scratch);
            self.ep.bcast_slice(0, Some(&scratch));
        } else {
            let bytes = self
                .ep
                .bcast_slice(0, None)
                .expect("non-root receives broadcast payload");
            cell.load_bytes(&bytes).expect("broadcast install failed");
        }
    }

    /// Element-wise all-reduce of an `f64` field.
    pub(crate) fn allreduce_field(&self, ctx: &Ctx, field: &str, op: ReduceOp) {
        let cell = ctx
            .registry()
            .state(field)
            .expect("allreduce field registered");
        let mine = cell.save_bytes();
        assert!(
            mine.len().is_multiple_of(8),
            "AllReduce update actions require f64 cells"
        );
        let all = self.ep.gather(0, mine);
        let combined = if let Some(all) = all {
            let mut acc: Vec<f64> = all[0]
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for payload in &all[1..] {
                for (a, c) in acc.iter_mut().zip(payload.chunks_exact(8)) {
                    *a = op.apply_f64(*a, f64::from_le_bytes(c.try_into().unwrap()));
                }
            }
            Some(
                acc.iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
            )
        } else {
            None
        };
        let bytes = self.ep.bcast(0, combined);
        cell.load_bytes(&bytes).expect("allreduce install failed");
    }

    /// Exchange `halo` boundary indices of a block-partitioned field with
    /// the neighbouring elements.
    pub(crate) fn halo_exchange_field(&self, ctx: &Ctx, field: &str, halo: usize) {
        let cell = ctx.registry().dist(field).expect("halo field registered");
        let n = self.ep.nranks();
        let rank = self.ep.rank();
        let len = cell.logical_len();
        assert!(
            len >= n,
            "halo exchange requires at least one index per element \
             (field {field:?}: {len} indices, {n} elements)"
        );
        let own = block_owned(len, n, rank);
        let h = halo.min(own.len());
        let to_prev = (rank > 0).then(|| cell.extract(own.start..own.start + h));
        let to_next = (rank + 1 < n).then(|| cell.extract(own.end - h..own.end));
        let (from_prev, from_next) = self.ep.halo_exchange(to_prev, to_next);
        if let Some(bytes) = from_prev {
            cell.install(own.start - h..own.start, &bytes)
                .expect("halo install (prev)");
        }
        if let Some(bytes) = from_next {
            cell.install(own.end..own.end + h, &bytes)
                .expect("halo install (next)");
        }
    }

    pub(crate) fn apply_update(&self, ctx: &Ctx, field: &str, action: UpdateAction) {
        match action {
            UpdateAction::HaloExchange { halo } => self.halo_exchange_field(ctx, field, halo),
            UpdateAction::Gather => self.gather_field(ctx, field, false),
            UpdateAction::Scatter => self.scatter_field(ctx, field, 0),
            UpdateAction::Broadcast => self.broadcast_field(ctx, field),
            UpdateAction::AllReduce(op) => self.allreduce_field(ctx, field, op),
        }
    }

    /// Strategy-dispatched quiesced snapshot (§IV.A): master-collect
    /// gathers partitioned safe data at the root (no global barriers);
    /// local-snapshot brackets per-element saves with two global barriers.
    /// Run by the element's worker-0 line. Every element learns whether
    /// every element's save held ([`DsmEngine::agree`]): `Err` on all of
    /// them when one failed, so the whole aggregate ends the attempt
    /// instead of leaving its peers waiting at their next collective.
    pub(crate) fn snapshot_strategy(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) -> Result<()> {
        let plan = ctx.plan();
        match plan.dist_ckpt_strategy() {
            DistCkptStrategy::MasterCollect => {
                // Collect partitioned safe data at the root — no
                // global barriers (§IV.A, second alternative). Once this
                // attempt has saved, the root's copy is the last save's
                // gather plus what each element tracked since: only
                // *dirty ranges* travel (clamped to the owned block), and
                // the root's record — a delta, a patched full record and
                // its block CRCs — scales with the aggregate dirty
                // fraction, not the field size.
                let dirty = ck.may_gather_dirty();
                for field in plan.safe_data() {
                    if plan.field_partition(field).is_some() {
                        self.gather_field(ctx, field, dirty);
                    }
                }
                // The root saves; every other element resets its write
                // tracking: what was dirty here is at the root now.
                self.agree("save its checkpoint", || match self.ep.rank() {
                    0 => ck.take_snapshot(ctx),
                    _ => ck.note_peer_snapshot(ctx),
                })
            }
            DistCkptStrategy::LocalSnapshot => {
                // Two global barriers around per-element snapshots
                // (§IV.A, first alternative); the agreement on the saves
                // is the second.
                self.ep.barrier();
                self.agree("save its checkpoint", || ck.take_snapshot(ctx))?;
                // Past it every shard is durable: the root advances the
                // group-commit point, pinning the newest safe point a
                // restart may target. A rank dying mid-save can therefore
                // never tear the restored group.
                self.agree("commit the group's checkpoint", || match self.ep.rank() {
                    0 => ck.group_commit(ctx),
                    _ => Ok(()),
                })
            }
        }
    }

    /// Strategy-dispatched quiesced restore; see
    /// [`DsmEngine::snapshot_strategy`]. Every element learns whether every
    /// element's load held before any state moves ([`DsmEngine::agree`]),
    /// so a failed load ends the restore on all of them instead of leaving
    /// its peers waiting for a scatter or a barrier that never comes.
    pub(crate) fn load_strategy(&self, ctx: &Ctx, ck: &Arc<dyn CkptHook>) -> Result<()> {
        let plan = ctx.plan();
        match plan.dist_ckpt_strategy() {
            DistCkptStrategy::MasterCollect => {
                // A live hand-off installs on every element from the
                // predecessor's frozen state: nothing is left to move.
                if self.agree("load its checkpoint", || ck.load_snapshot(ctx))? == Installed::Root {
                    // The paper's "load" cost for distributed restarts
                    // includes scattering the data back across the
                    // aggregate — attribute it to the load statistics.
                    let t0 = std::time::Instant::now();
                    self.redistribute_after_load(ctx);
                    ck.note_load_extra(t0.elapsed());
                }
            }
            DistCkptStrategy::LocalSnapshot => {
                self.ep.barrier();
                self.agree("load its checkpoint", || ck.load_snapshot(ctx))?;
                // Owned ranges are restored; halos are stale.
                let t0 = std::time::Instant::now();
                for (field, halo) in plan.halo_fields() {
                    if halo > 0 {
                        self.halo_exchange_field(ctx, &field, halo);
                    }
                }
                ck.note_load_extra(t0.elapsed());
            }
        }
        Ok(())
    }

    /// Take a step every element takes — to `what` — and return its
    /// outcome once every element's is known: an all-reduce of the
    /// failures, so it is also a barrier. `Err` on every element when any
    /// element failed — the element's own error where it was the one that
    /// failed. A step that unwinds (a panic, or an exit of its own) fails
    /// too, and carries on unwinding on its element once the others know.
    fn agree<T>(&self, what: &str, step: impl FnOnce() -> Result<T>) -> Result<T> {
        let outcome = catch_unwind(AssertUnwindSafe(step));
        let failed = !matches!(outcome, Ok(Ok(_)));
        let failed = self.ep.allreduce_f64(ReduceOp::Max, failed as u8 as f64);
        match outcome {
            Err(unwind) => resume_unwind(unwind),
            Ok(Ok(_)) if failed > 0.0 => Err(PparError::CorruptCheckpoint(format!(
                "another element of the aggregate failed to {what}"
            ))),
            Ok(outcome) => outcome,
        }
    }

    /// After a snapshot restored at the root: redistribute safe data and
    /// refresh halos.
    pub(crate) fn redistribute_after_load(&self, ctx: &Ctx) {
        let plan = ctx.plan();
        for field in plan.safe_data() {
            if plan.field_partition(field).is_some() {
                self.scatter_field(ctx, field, plan.halo_depth(field));
            } else {
                self.broadcast_field(ctx, field);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload laid out by hand: `ranges`, then `bytes` bytes.
    fn payload(ranges: &[Range<usize>], bytes: usize) -> Vec<u8> {
        let mut out = (ranges.len() as u64).to_le_bytes().to_vec();
        for r in ranges {
            out.extend((r.start as u64).to_le_bytes());
            out.extend((r.end as u64).to_le_bytes());
        }
        out.resize(out.len() + bytes, 7);
        out
    }

    #[test]
    fn a_payload_inside_its_senders_ranges_is_installed() {
        let owned = [2..6, 10..20];
        let sent = [2..3, 4..6, 11..20];
        let bytes = payload(&sent, 12 * 8);
        let (ranges, body) = DsmEngine::payload_ranges(&bytes, &owned, 8);
        assert_eq!((ranges, body), (sent.to_vec(), &[7u8; 96][..]));
        let empty = payload(&[], 0);
        let (none, body) = DsmEngine::payload_ranges(&empty, &owned, 8);
        assert!(none.is_empty() && body.is_empty());
    }

    /// Each way a payload can disagree with its sender is refused, as a
    /// length mismatch at install is.
    #[test]
    #[allow(clippy::single_range_in_vec_init)] // ranges here are span data
    fn a_payload_that_disagrees_with_its_sender_is_refused() {
        let owned = [2..6, 10..20];
        let bad = [
            payload(&[4..6, 2..3], 3 * 8),      // unsorted
            payload(&[2..5, 4..6], 5 * 8),      // overlapping
            payload(&[3..3], 0),                // empty
            payload(&[5..11], 6 * 8),           // across two owned ranges
            payload(&[18..21], 3 * 8),          // past the owned ranges
            payload(&[2..4], 2 * 8 - 1),        // short of bytes
            payload(&[2..4], 2 * 8 + 1),        // bytes left over
            payload(&[2..4], 0)[..20].to_vec(), // truncated range map
            u64::MAX.to_le_bytes().to_vec(),    // an absurd count
            Vec::new(),                         // no count at all
        ];
        for (i, bytes) in bad.iter().enumerate() {
            let read = catch_unwind(|| DsmEngine::payload_ranges(bytes, &owned, 8));
            assert!(read.is_err(), "case {i} was accepted");
        }
    }
}
