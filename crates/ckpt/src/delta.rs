//! Delta snapshot records: the incremental half of the checkpoint format.
//!
//! A *delta* persists only the bytes written since the previous snapshot
//! (full or delta), as reported by the containers' chunked dirty tracking
//! ([`ppar_core::state::StateCell::dirty_ranges`]). A checkpoint directory
//! in incremental mode therefore holds one *base* full snapshot plus a
//! numbered *delta chain*; restore folds the chain onto the base
//! (last-writer-wins per byte) and yields a state byte-identical to
//! a full snapshot of the same state.
//!
//! File format (all integers little-endian; strings and payloads are
//! `u64`-length-prefixed as in the full-snapshot format):
//!
//! ```text
//! magic      8B  "PPARDLT1"
//! version    u32  format version (currently 1; readers reject others)
//! mode       len-prefixed UTF-8 tag
//! count      u64  safe points executed when this delta was taken
//! base_count u64  safe-point count of the chain's base full snapshot
//! seq        u32  1-based position in the delta chain
//! rank       u32  owning element, 0xFFFF_FFFF for a master delta
//! nranks     u32  aggregate size at snapshot time
//! nfields    u32
//! fields     nfields × {
//!   name     len-prefixed UTF-8
//!   kind     u8   0 = full payload, 1 = sparse (dirty ranges)
//!   kind 0:  payload  len-prefixed bytes
//!   kind 1:  full_len u64   total payload length of the field (validation)
//!            nranges  u32
//!            ranges   nranges × { off u64, len u64 }   (into the payload)
//!            bytes    concatenated range payloads, in listed order
//! }
//! crc        u32  CRC-32 of every preceding byte
//! ```
//!
//! `base_count` ties a delta to one specific base: a crash between "write
//! new full snapshot" and "garbage-collect old deltas" leaves stale deltas
//! whose `base_count` no longer matches — the merge step ignores them
//! instead of corrupting the restore. Sparse offsets are relative to the
//! *field payload* (the full field for master snapshots, the extracted
//! owned block for shard snapshots), which keeps the merge a plain
//! `payload[off..off+len] = bytes` in both strategies.
//!
//! ## Who parses, who owns, who folds
//!
//! [`DeltaView`] is what the one delta parser produces: every whole-field
//! payload and every sparse range is a slice of the record's own bytes.
//! [`DeltaSnapshot`] (the same shape holding `Vec<u8>`) is the owned copy
//! of a view, for code that inspects a single record. `Merged` is the
//! fold: the base record's *bytes*, patched in place by each delta view —
//! a restore therefore holds one record-sized buffer however long the
//! chain.

use std::borrow::Cow;

use ppar_core::error::{PparError, Result};

use crate::store::{record_body, FieldSpans, Reader, SnapshotMeta, SnapshotView, MASTER_RANK};

/// Magic prefix of delta snapshot files.
pub const DELTA_MAGIC: &[u8; 8] = b"PPARDLT1";
/// Current delta format version; readers reject anything else.
pub const DELTA_VERSION: u32 = 1;

/// Header of one delta record (everything except the field payloads).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaMeta {
    /// Execution-mode tag at snapshot time.
    pub mode_tag: String,
    /// Safe points executed when the delta was taken.
    pub count: u64,
    /// Safe-point count of the base full snapshot this chain extends.
    pub base_count: u64,
    /// 1-based position in the delta chain.
    pub seq: u32,
    /// Owning element for shard deltas; `None` for master deltas.
    pub rank: Option<u32>,
    /// Aggregate size at snapshot time.
    pub nranks: u32,
}

/// One field's content inside a delta record. `B` is how payload bytes are
/// held: `&[u8]` slices of the record as parsed ([`DeltaView`]), `Vec<u8>`
/// in the owned form.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaPayload<B = Vec<u8>> {
    /// The whole field (containers without write tracking).
    Full(B),
    /// Only the touched byte ranges of a `full_len`-byte field payload.
    Sparse {
        /// Total length the merged field payload must have.
        full_len: u64,
        /// `(offset, bytes)` patches, applied in order (last writer wins).
        ranges: Vec<(u64, B)>,
    },
}

impl<B: AsRef<[u8]>> DeltaPayload<B> {
    /// Bytes this payload contributes to the delta file (the savings signal:
    /// compare against the field's full length).
    pub fn payload_bytes(&self) -> usize {
        match self {
            DeltaPayload::Full(b) => b.as_ref().len(),
            DeltaPayload::Sparse { ranges, .. } => {
                ranges.iter().map(|(_, b)| b.as_ref().len()).sum()
            }
        }
    }
}

/// A decoded delta record; the owned form unless `B` says otherwise (see
/// [`DeltaPayload`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSnapshot<B = Vec<u8>> {
    /// Header.
    pub meta: DeltaMeta,
    /// Field name → delta payload, in `SafeData` declaration order.
    pub fields: Vec<(String, DeltaPayload<B>)>,
}

/// A delta record as parsed: payloads are slices of the record's bytes.
pub type DeltaView<'a> = DeltaSnapshot<&'a [u8]>;

impl DeltaMeta {
    /// The delta parser's header step: magic through `nranks`. All a chain
    /// walk that only wants the tip's count needs of a record.
    pub(crate) fn header(r: &mut Reader<'_>) -> Result<DeltaMeta> {
        let magic = r.take(8)?;
        if magic != DELTA_MAGIC {
            return Err(PparError::FormatMismatch {
                expected: String::from_utf8_lossy(DELTA_MAGIC).into_owned(),
                found: String::from_utf8_lossy(magic).into_owned(),
            });
        }
        let version = r.take_u32()?;
        if version != DELTA_VERSION {
            return Err(PparError::FormatMismatch {
                expected: format!("delta format v{DELTA_VERSION}"),
                found: format!("delta format v{version}"),
            });
        }
        let mode_tag = r.take_str()?;
        let count = r.take_u64()?;
        let base_count = r.take_u64()?;
        let seq = r.take_u32()?;
        let rank_raw = r.take_u32()?;
        let nranks = r.take_u32()?;
        Ok(DeltaMeta {
            mode_tag,
            count,
            base_count,
            seq,
            rank: (rank_raw != MASTER_RANK).then_some(rank_raw),
            nranks,
        })
    }
}

impl DeltaSnapshot {
    /// Decode and integrity-check one delta record: the owned copy of
    /// [`DeltaView::of_record`].
    pub fn decode(bytes: &[u8]) -> Result<DeltaSnapshot> {
        let view = DeltaView::of_record(bytes)?;
        let own = |payload: &DeltaPayload<&[u8]>| match payload {
            DeltaPayload::Full(b) => DeltaPayload::Full(b.to_vec()),
            DeltaPayload::Sparse { full_len, ranges } => DeltaPayload::Sparse {
                full_len: *full_len,
                ranges: ranges.iter().map(|(off, b)| (*off, b.to_vec())).collect(),
            },
        };
        Ok(DeltaSnapshot {
            fields: view
                .fields
                .iter()
                .map(|(n, p)| (n.clone(), own(p)))
                .collect(),
            meta: view.meta,
        })
    }
}

impl<'a> DeltaView<'a> {
    /// Parse one delta record and verify its trailing CRC-32.
    pub fn of_record(bytes: &'a [u8]) -> Result<DeltaView<'a>> {
        DeltaView::parse(record_body(bytes, true, "delta ")?)
    }

    /// The one delta parser, over `body` (the record without its CRC
    /// trailer). Nothing is copied but names.
    pub(crate) fn parse(body: &'a [u8]) -> Result<DeltaView<'a>> {
        let mut r = Reader { buf: body, pos: 0 };
        let meta = DeltaMeta::header(&mut r)?;
        // A field costs at least its name's length prefix, its kind byte
        // and one more length.
        let nfields = r.take_count(17, "delta fields")?;
        let mut fields = Vec::with_capacity(nfields);
        for _ in 0..nfields {
            let name = r.take_str()?;
            let payload = match r.take(1)?[0] {
                0 => {
                    let len = r.take_len()?;
                    DeltaPayload::Full(r.take(len)?)
                }
                1 => {
                    let full_len = r.take_u64()?;
                    let nranges = r.take_count(16, "ranges")?;
                    // The range map comes first, the ranges' bytes after it.
                    let mut map = Reader {
                        buf: r.take(nranges * 16)?,
                        pos: 0,
                    };
                    let mut ranges = Vec::with_capacity(nranges);
                    for _ in 0..nranges {
                        let off = map.take_u64()?;
                        let len = map.take_len()?;
                        ranges.push((off, r.take(len)?));
                    }
                    DeltaPayload::Sparse { full_len, ranges }
                }
                other => {
                    return Err(PparError::CorruptCheckpoint(format!(
                        "unknown delta field kind {other} for field {name:?}"
                    )))
                }
            };
            fields.push((name, payload));
        }
        r.finish("delta CRC")?;
        Ok(DeltaSnapshot { meta, fields })
    }
}

/// A chain being folded, on bytes: the base record, whose field payloads
/// each live delta patches *in place*, so a restore of base + k deltas holds
/// one record-sized buffer, not 1 + k. A borrowed base (the memory medium
/// lends its held record) is copied when the first patch arrives and never
/// if none does; an owned one (read off a disk) is never copied at all.
pub(crate) struct Merged<'b> {
    record: Cow<'b, [u8]>,
    /// The base's header; `count` and `mode_tag` advance with every delta.
    meta: SnapshotMeta,
    fields: FieldSpans,
    /// The side table, parallel to `fields`: a whole-field replacement
    /// whose length differs from the base field's (the `PPARPRG1` cursor)
    /// cannot land in the record and lives here instead.
    replaced: Vec<Option<Vec<u8>>>,
}

impl<'b> Merged<'b> {
    /// Start a fold from a base record's bytes (CRC-checked when `verify`).
    pub(crate) fn of_base(record: Cow<'b, [u8]>, verify: bool) -> Result<Merged<'b>> {
        let (meta, fields) = SnapshotView::parse(record_body(&record, verify, "")?)?;
        Ok(Merged {
            replaced: vec![None; fields.len()],
            record,
            meta,
            fields,
        })
    }

    /// The safe point the fold stands at.
    pub(crate) fn count(&self) -> u64 {
        self.meta.count
    }

    /// Fold `delta` in (last writer wins per byte). Every earlier delta of
    /// the chain must already be applied; on success the fold stands at
    /// this delta's safe point.
    pub(crate) fn apply(&mut self, delta: &DeltaView<'_>) -> Result<()> {
        let chain = |rank: Option<u32>, nranks: u32| format!("rank {rank:?} of {nranks}");
        if (delta.meta.rank, delta.meta.nranks) != (self.meta.rank, self.meta.nranks) {
            return Err(PparError::FormatMismatch {
                expected: format!("delta for {}", chain(self.meta.rank, self.meta.nranks)),
                found: chain(delta.meta.rank, delta.meta.nranks),
            });
        }
        for (name, payload) in &delta.fields {
            let idx = self.fields.iter().position(|(n, _)| n == name);
            let idx = idx.ok_or_else(|| {
                PparError::CorruptCheckpoint(format!(
                    "delta patches field {name:?} missing from the base snapshot"
                ))
            })?;
            let span = self.fields[idx].1.clone();
            match payload {
                DeltaPayload::Full(bytes) if bytes.len() == span.len() => {
                    self.replaced[idx] = None;
                    self.record.to_mut()[span].copy_from_slice(bytes);
                }
                DeltaPayload::Full(bytes) => self.replaced[idx] = Some(bytes.to_vec()),
                DeltaPayload::Sparse { full_len, ranges } => {
                    let slot = match &mut self.replaced[idx] {
                        Some(side) => side.as_mut_slice(),
                        None => &mut self.record.to_mut()[span],
                    };
                    if slot.len() as u64 != *full_len {
                        return Err(PparError::CorruptCheckpoint(format!(
                            "delta field {name:?} expects a {full_len}-byte payload, \
                             base has {} bytes",
                            slot.len()
                        )));
                    }
                    for (off, bytes) in ranges {
                        let start = usize::try_from(*off).unwrap_or(usize::MAX);
                        let end = start.checked_add(bytes.len());
                        let dst = end.and_then(|end| slot.get_mut(start..end));
                        let dst = dst.ok_or_else(|| {
                            PparError::CorruptCheckpoint(format!(
                                "delta field {name:?} range {off}+{} overruns the \
                                 {full_len}-byte payload",
                                bytes.len()
                            ))
                        })?;
                        dst.copy_from_slice(bytes);
                    }
                }
            }
        }
        self.meta.count = delta.meta.count;
        self.meta.mode_tag.clone_from(&delta.meta.mode_tag);
        Ok(())
    }

    /// The merged state: per field byte-identical to a full snapshot taken
    /// at [`Merged::count`].
    pub(crate) fn view(&self) -> SnapshotView<'_> {
        let fields = self.fields.iter().zip(&self.replaced);
        let fields = fields.map(|((name, span), side)| {
            let payload = side.as_deref().unwrap_or(&self.record[span.clone()]);
            (name.clone(), payload)
        });
        SnapshotView {
            meta: self.meta.clone(),
            fields: fields.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Snapshot;

    type Patch<'a> = DeltaPayload<&'a [u8]>;

    fn sparse<'a>(full_len: u64, ranges: Vec<(u64, &'a [u8])>) -> Patch<'a> {
        DeltaPayload::Sparse { full_len, ranges }
    }

    fn base() -> Snapshot {
        Snapshot {
            mode_tag: "seq".into(),
            count: 10,
            rank: None,
            nranks: 1,
            fields: vec![
                ("G".into(), vec![0u8; 16]),
                ("energy".into(), vec![1, 2, 3, 4]),
            ],
        }
    }

    fn delta<'a>(count: u64, fields: Vec<(&str, Patch<'a>)>) -> DeltaView<'a> {
        DeltaSnapshot {
            meta: DeltaMeta {
                mode_tag: "seq".into(),
                count,
                base_count: 10,
                seq: 1,
                rank: None,
                nranks: 1,
            },
            fields: fields.into_iter().map(|(n, p)| (n.into(), p)).collect(),
        }
    }

    /// Fold `deltas` onto the encoded [`base`], held both ways a medium can
    /// hold it; the two must agree.
    fn fold(deltas: &[DeltaView<'_>]) -> Result<Snapshot> {
        let record = base().encode();
        let run = |base: Cow<'_, [u8]>| {
            let mut merged = Merged::of_base(base, true)?;
            deltas.iter().try_for_each(|d| merged.apply(d))?;
            Ok(merged.view().to_snapshot())
        };
        let owned = run(Cow::Owned(record.clone()));
        let lent: Result<Snapshot> = run(Cow::Borrowed(&record));
        assert_eq!(owned.as_ref().ok(), lent.as_ref().ok());
        assert_eq!(owned.is_err(), lent.is_err());
        owned
    }

    #[test]
    fn sparse_patches_apply_last_writer_wins() {
        let d = delta(
            12,
            vec![("G", sparse(16, vec![(0, &[9; 8]), (4, &[7; 4])]))],
        );
        let snap = fold(&[d]).unwrap();
        assert_eq!(
            snap.field("G").unwrap(),
            &[9, 9, 9, 9, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(snap.count, 12);
    }

    #[test]
    fn full_payload_replaces_field() {
        let d = delta(11, vec![("energy", DeltaPayload::Full(&[8, 8]))]);
        let snap = fold(&[d]).unwrap();
        assert_eq!(snap.field("energy").unwrap(), &[8, 8]);
        assert_eq!(snap.field("G").unwrap().len(), 16, "untouched field kept");
    }

    /// A whole-field replacement of another length leaves the record for
    /// the side table; later deltas patch it there, and a replacement of
    /// the base's length moves the field back into the record.
    #[test]
    fn a_field_that_changed_length_keeps_folding() {
        let grow = delta(11, vec![("energy", DeltaPayload::Full(&[5; 6]))]);
        let mut patch = delta(12, vec![("energy", sparse(6, vec![(4, &[6, 6])]))]);
        patch.meta.seq = 2;
        let snap = fold(&[grow.clone(), patch.clone()]).unwrap();
        assert_eq!(snap.field("energy").unwrap(), &[5, 5, 5, 5, 6, 6]);
        assert_eq!(snap.encode(), {
            let mut full = base();
            full.count = 12;
            full.fields[1].1 = vec![5, 5, 5, 5, 6, 6];
            full.encode()
        });

        // The sparse patch is checked against the field as it now stands.
        let stale = delta(12, vec![("energy", sparse(4, vec![(0, &[1])]))]);
        assert!(fold(&[grow.clone(), stale]).is_err());

        let back = delta(13, vec![("energy", DeltaPayload::Full(&[4; 4]))]);
        let snap = fold(&[grow, patch, back]).unwrap();
        assert_eq!(snap.field("energy").unwrap(), &[4; 4]);
    }

    #[test]
    fn apply_rejects_bad_shapes() {
        // Unknown field.
        let d = delta(11, vec![("missing", DeltaPayload::Full(&[1]))]);
        assert!(fold(&[d]).is_err());

        // Length mismatch on a sparse payload.
        let d = delta(11, vec![("G", sparse(99, vec![]))]);
        assert!(fold(&[d]).is_err());

        // Range overrun, by length and by an offset no address space holds.
        let d = delta(11, vec![("G", sparse(16, vec![(12, &[0; 8])]))]);
        assert!(fold(&[d]).is_err());
        let d = delta(11, vec![("G", sparse(16, vec![(u64::MAX - 3, &[0; 8])]))]);
        assert!(fold(&[d]).is_err());

        // Rank / nranks mismatch.
        let mut d = delta(11, vec![]);
        d.meta.rank = Some(3);
        assert!(fold(&[d]).is_err());
        let mut d = delta(11, vec![]);
        d.meta.nranks = 4;
        assert!(fold(&[d]).is_err());
    }

    #[test]
    fn payload_bytes_counts_only_carried_bytes() {
        assert_eq!(DeltaPayload::Full(vec![0; 5]).payload_bytes(), 5);
        assert_eq!(
            sparse(100, vec![(0, &[0; 3]), (50, &[0; 4])]).payload_bytes(),
            7
        );
    }
}
