//! Delta snapshot records: the incremental half of the checkpoint format.
//!
//! A *delta* persists only the bytes written since the previous snapshot
//! (full or delta), as reported by the containers' chunked dirty tracking
//! ([`ppar_core::state::StateCell::dirty_ranges`]). A checkpoint directory
//! in incremental mode therefore holds the master's *base* full snapshot
//! plus a numbered *delta chain*; restore folds the chain onto the base
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
//! *field payload* (the full field: only the master record has a chain),
//! which keeps the merge a plain `payload[off..off+len] = bytes`.
//!
//! ## Who writes, who parses, who folds
//!
//! This crate owns the format. Only master-chain delta saves write it
//! ([`crate::store::Record::Delta`], behind `CheckpointModule`'s
//! incremental saves and the wire's delta put), and only the chain fold
//! reads it: `DeltaMeta::header` decodes the header and `Merged`'s field
//! decoder every field descriptor after it, reading each payload straight
//! from the disk into the base record's bytes, CRC running. A restore
//! therefore holds one record-sized buffer however long the chain, and no
//! delta is ever held whole. The distributed gather does not use this
//! format: it ships plain owned ranges, checked by the `tcp` frame CRC.

use ppar_core::error::{PparError, Result};

use crate::store::{FieldSpans, Input, Reader, SnapshotMeta, SnapshotView, MASTER_RANK};

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

impl DeltaMeta {
    /// The delta decoder's header step: magic through `nranks`. All a chain
    /// walk needs to judge a record, and all a peek at its head reads.
    pub(crate) fn header(r: &mut impl Input) -> Result<DeltaMeta> {
        let magic: [u8; 8] = r.take_array()?;
        if &magic != DELTA_MAGIC {
            return Err(PparError::FormatMismatch {
                expected: String::from_utf8_lossy(DELTA_MAGIC).into_owned(),
                found: String::from_utf8_lossy(&magic).into_owned(),
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

/// A chain being folded, on bytes: the base record, whose field payloads
/// each live delta patches *in place* as it is read. A restore of a base
/// and k deltas holds one record-sized buffer, not 1 + k, and no delta
/// buffer at all: every payload range is read straight into its span, and
/// the base itself is never copied.
pub(crate) struct Merged {
    /// The base record's body (no CRC trailer).
    record: Vec<u8>,
    /// The base's header; `count` and `mode_tag` advance with every delta.
    meta: SnapshotMeta,
    fields: FieldSpans,
    /// The side table, parallel to `fields`: a whole-field replacement
    /// whose length differs from the base field's (the `PPARPRG1` cursor)
    /// cannot land in the record and lives here instead.
    replaced: Vec<Option<Vec<u8>>>,
}

impl Merged {
    /// Start a fold from a base record's body, whose integrity the caller
    /// has established.
    pub(crate) fn of_base(record: Vec<u8>) -> Result<Merged> {
        let (meta, fields) = SnapshotView::parse(&mut Reader {
            buf: &record,
            pos: 0,
        })?;
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

    /// Fold in the delta `meta` heads, reading the rest of it from `r`
    /// (last writer wins per byte). Every earlier delta of the chain must
    /// already be in; on success the fold stands at this delta's safe
    /// point. On `Err` the record may be half patched, and the fold is
    /// dropped.
    pub(crate) fn apply(&mut self, meta: &DeltaMeta, r: &mut impl Input) -> Result<()> {
        let chain = |rank: Option<u32>, nranks: u32| format!("rank {rank:?} of {nranks}");
        if (meta.rank, meta.nranks) != (self.meta.rank, self.meta.nranks) {
            return Err(PparError::FormatMismatch {
                expected: format!("delta for {}", chain(self.meta.rank, self.meta.nranks)),
                found: chain(meta.rank, meta.nranks),
            });
        }
        self.decode_fields(r)?;
        self.meta.count = meta.count;
        self.meta.mode_tag.clone_from(&meta.mode_tag);
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

    /// The index of base field `name`.
    fn field(&self, name: &str) -> Result<usize> {
        let idx = self.fields.iter().position(|(n, _)| n == name);
        idx.ok_or_else(|| {
            PparError::CorruptCheckpoint(format!(
                "delta patches field {name:?} missing from the base snapshot"
            ))
        })
    }

    /// The one `PPARDLT1` decoder past the header: every field's descriptor
    /// (name, kind, lengths, range map) up to the CRC trailer, each payload
    /// read from `r` straight into its place — the record, or the side
    /// table — once the body is known to hold it.
    fn decode_fields(&mut self, r: &mut impl Input) -> Result<()> {
        // A field costs at least its name's length prefix, its kind byte and
        // one more length.
        let nfields = r.take_count(17, "delta fields")?;
        let mut map = Vec::new();
        for _ in 0..nfields {
            let name = r.take_str()?;
            match r.take_u8()? {
                0 => {
                    let len = r.take_len()?;
                    r.check(len)?;
                    let idx = self.field(&name)?;
                    let span = self.fields[idx].1.clone();
                    if len == span.len() {
                        self.replaced[idx] = None;
                        r.fill(&mut self.record[span])?;
                    } else {
                        let side = self.replaced[idx].get_or_insert_with(Vec::new);
                        side.clear();
                        side.resize(len, 0);
                        r.fill(side)?;
                    }
                }
                1 => {
                    let full_len = r.take_u64()?;
                    // The range map comes first, the ranges' bytes after it.
                    let nranges = r.take_count(16, "ranges")?;
                    map.clear();
                    map.reserve(nranges);
                    for _ in 0..nranges {
                        map.push((r.take_u64()?, r.take_len()?));
                    }
                    let carried = map
                        .iter()
                        .try_fold(0usize, |sum, &(_, len)| sum.checked_add(len));
                    r.check(carried.unwrap_or(usize::MAX))?;
                    self.sparse(r, &name, full_len, &map)?;
                }
                other => {
                    return Err(PparError::CorruptCheckpoint(format!(
                        "unknown delta field kind {other} for field {name:?}"
                    )))
                }
            }
        }
        r.finish("delta CRC")
    }

    /// Field `name`, `full_len` bytes long, patched at each `(offset, len)`
    /// of `ranges` in order (last writer wins) by the next bytes of `r`.
    fn sparse(
        &mut self,
        r: &mut impl Input,
        name: &str,
        full_len: u64,
        ranges: &[(u64, usize)],
    ) -> Result<()> {
        let idx = self.field(name)?;
        let span = self.fields[idx].1.clone();
        let slot = match &mut self.replaced[idx] {
            Some(side) => side.as_mut_slice(),
            None => &mut self.record[span],
        };
        if slot.len() as u64 != full_len {
            return Err(PparError::CorruptCheckpoint(format!(
                "delta field {name:?} expects a {full_len}-byte payload, base has {} bytes",
                slot.len()
            )));
        }
        for &(off, len) in ranges {
            let start = usize::try_from(off).unwrap_or(usize::MAX);
            let dst = start
                .checked_add(len)
                .and_then(|end| slot.get_mut(start..end));
            let dst = dst.ok_or_else(|| {
                PparError::CorruptCheckpoint(format!(
                    "delta field {name:?} range {off}+{len} overruns the {full_len}-byte payload"
                ))
            })?;
            r.fill(dst)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::store::{DeltaSource, OnDisk, Record, RecordStream, Snapshot};
    use ppar_core::shared::SharedVec;

    /// One field of a delta laid out by hand.
    #[derive(Clone)]
    enum Field<'a> {
        /// The whole field.
        Whole(&'a [u8]),
        /// `(offset, bytes)` patches of a `full_len`-byte field.
        Sparse(u64, Vec<(u64, &'a [u8])>),
    }

    /// A delta laid out by hand: its header and fields.
    #[derive(Clone)]
    struct Delta<'a> {
        meta: DeltaMeta,
        fields: Vec<(&'a str, Field<'a>)>,
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

    fn meta(count: u64) -> DeltaMeta {
        DeltaMeta {
            mode_tag: "seq".into(),
            count,
            base_count: 10,
            seq: 1,
            rank: None,
            nranks: 1,
        }
    }

    fn delta<'a>(count: u64, fields: Vec<(&'a str, Field<'a>)>) -> Delta<'a> {
        Delta {
            meta: meta(count),
            fields,
        }
    }

    /// `d` laid out by hand (any offset, however absurd, is written as
    /// given), CRC trailer included.
    fn encode(d: &Delta<'_>) -> Vec<u8> {
        let mut out = DELTA_MAGIC.to_vec();
        let put_bytes = |out: &mut Vec<u8>, b: &[u8]| {
            out.extend((b.len() as u64).to_le_bytes());
            out.extend(b);
        };
        out.extend(DELTA_VERSION.to_le_bytes());
        put_bytes(&mut out, d.meta.mode_tag.as_bytes());
        out.extend(d.meta.count.to_le_bytes());
        out.extend(d.meta.base_count.to_le_bytes());
        out.extend(d.meta.seq.to_le_bytes());
        out.extend(d.meta.rank.unwrap_or(MASTER_RANK).to_le_bytes());
        out.extend(d.meta.nranks.to_le_bytes());
        out.extend((d.fields.len() as u32).to_le_bytes());
        for (name, field) in &d.fields {
            put_bytes(&mut out, name.as_bytes());
            match field {
                Field::Whole(b) => {
                    out.push(0);
                    put_bytes(&mut out, b);
                }
                Field::Sparse(full_len, ranges) => {
                    out.push(1);
                    out.extend(full_len.to_le_bytes());
                    out.extend((ranges.len() as u32).to_le_bytes());
                    for (off, b) in ranges {
                        out.extend(off.to_le_bytes());
                        out.extend((b.len() as u64).to_le_bytes());
                    }
                    ranges.iter().for_each(|(_, b)| out.extend(*b));
                }
            }
        }
        let crc = crc32(&out);
        out.extend(crc.to_le_bytes());
        out
    }

    /// Fold `records` onto the encoded `base`, each record streamed and
    /// CRC-checked as the fold reads it off a medium.
    fn fold_onto(base: &Snapshot, records: &[Vec<u8>]) -> Result<Snapshot> {
        let record = base.encode();
        let mut merged = Merged::of_base(record[..record.len() - 4].to_vec())?;
        for rec in records {
            let src = OnDisk::new(Box::new(std::io::Cursor::new(&rec[..])), None);
            let mut r = RecordStream::new(src, rec.len() as u64, "delta ")?;
            merged.apply(&DeltaMeta::header(&mut r)?, &mut r)?;
            r.end()?;
        }
        Ok(merged.view().to_snapshot())
    }

    /// Fold the hand-laid `deltas` onto [`base`].
    fn fold(deltas: &[Delta<'_>]) -> Result<Snapshot> {
        fold_onto(&base(), &deltas.iter().map(encode).collect::<Vec<_>>())
    }

    #[test]
    fn sparse_patches_apply_last_writer_wins() {
        let d = delta(
            12,
            vec![("G", Field::Sparse(16, vec![(0, &[9; 8]), (4, &[7; 4])]))],
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
        let d = delta(11, vec![("energy", Field::Whole(&[8, 8]))]);
        let snap = fold(&[d]).unwrap();
        assert_eq!(snap.field("energy").unwrap(), &[8, 8]);
        assert_eq!(snap.field("G").unwrap().len(), 16, "untouched field kept");
    }

    /// A whole-field replacement of another length leaves the record for
    /// the side table; later deltas patch it there, and a replacement of
    /// the base's length moves the field back into the record.
    #[test]
    fn a_field_that_changed_length_keeps_folding() {
        let grow = delta(11, vec![("energy", Field::Whole(&[5; 6]))]);
        let mut patch = delta(12, vec![("energy", Field::Sparse(6, vec![(4, &[6, 6])]))]);
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
        let stale = delta(12, vec![("energy", Field::Sparse(4, vec![(0, &[1])]))]);
        assert!(fold(&[grow.clone(), stale]).is_err());

        let back = delta(13, vec![("energy", Field::Whole(&[4; 4]))]);
        let snap = fold(&[grow, patch, back]).unwrap();
        assert_eq!(snap.field("energy").unwrap(), &[4; 4]);
    }

    #[test]
    fn apply_rejects_bad_shapes() {
        // Unknown field.
        let d = delta(11, vec![("missing", Field::Whole(&[1]))]);
        assert!(fold(&[d]).is_err());

        // Length mismatch on a sparse payload.
        let d = delta(11, vec![("G", Field::Sparse(99, vec![]))]);
        assert!(fold(&[d]).is_err());

        // Range overrun, by length and by an offset no address space holds.
        let d = delta(11, vec![("G", Field::Sparse(16, vec![(12, &[0; 8])]))]);
        assert!(fold(&[d]).is_err());
        let d = delta(
            11,
            vec![("G", Field::Sparse(16, vec![(u64::MAX - 3, &[0; 8])]))],
        );
        assert!(fold(&[d]).is_err());

        // Rank / nranks mismatch.
        let mut d = delta(11, vec![]);
        d.meta.rank = Some(3);
        assert!(fold(&[d]).is_err());
        let mut d = delta(11, vec![]);
        d.meta.nranks = 4;
        assert!(fold(&[d]).is_err());
    }

    /// A sparse record carries its touched bytes and their range map, not
    /// the field: its size does not follow the field's length, and each
    /// carried byte adds exactly one byte to it. Folded, it patches a field
    /// of its `full_len` with exactly its touched bytes.
    #[test]
    fn a_sparse_record_carries_only_its_touched_bytes() {
        let record = |full_len: usize, ranges: &[std::ops::Range<usize>]| {
            let cell = SharedVec::from_vec(vec![7u8; full_len]);
            let field = DeltaSource::DirtyCell {
                cell: &cell,
                ranges,
            };
            let (_, bytes) = Record::Delta(&meta(11), &[("G", field)])
                .encode(Vec::new())
                .unwrap();
            bytes
        };
        let small = record(100, &[0..3, 50..54]);
        assert_eq!(record(1 << 20, &[0..3, 50..54]).len(), small.len());
        assert_eq!(record(100, &[0..3, 50..59]).len(), small.len() + 5);

        let mut zeros = base();
        zeros.fields[0].1 = vec![0; 100];
        let snap = fold_onto(&zeros, &[small]).unwrap();
        let g = snap.field("G").unwrap();
        assert!(g[..3].iter().chain(&g[50..54]).all(|&b| b == 7));
        assert_eq!(g.iter().filter(|&&b| b == 7).count(), 7);
    }
}
