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
//! ## Who parses, who folds
//!
//! One decoder knows this layout: `DeltaMeta::header` for the header and
//! `decode_fields` for every field descriptor after it, over bytes in
//! memory or a record streaming off the disk, handing each payload to
//! whoever asked for it. [`DeltaView`] asks for slices: every whole-field
//! payload and every sparse range lent where it lies in the record (the
//! DSM's in-memory patch record is read this way). `Merged` is the fold:
//! the base record's *bytes*, into which each delta's payloads are read
//! straight from the disk, CRC running — a restore therefore holds one
//! record-sized buffer however long the chain, and no delta is ever held
//! whole.

use ppar_core::error::{PparError, Result};

use crate::store::{
    record_body, FieldSpans, Input, Reader, SnapshotMeta, SnapshotView, MASTER_RANK,
};

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

/// One field's content inside a delta record, its bytes lent from the
/// record.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaPayload<'a> {
    /// The whole field (containers without write tracking).
    Full(&'a [u8]),
    /// Only the touched byte ranges of a `full_len`-byte field payload.
    Sparse {
        /// Total length the merged field payload must have.
        full_len: u64,
        /// `(offset, bytes)` patches, applied in order (last writer wins).
        ranges: Vec<(u64, &'a [u8])>,
    },
}

/// A delta record as parsed: payloads are slices of the record's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaView<'a> {
    /// Header.
    pub meta: DeltaMeta,
    /// Field name → delta payload, in `SafeData` declaration order.
    pub fields: Vec<(String, DeltaPayload<'a>)>,
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

impl<'a> DeltaView<'a> {
    /// Parse one delta record and verify its trailing CRC-32; every payload
    /// is lent where it lies.
    pub fn of_record(bytes: &'a [u8]) -> Result<DeltaView<'a>> {
        let mut r = Reader {
            buf: record_body(bytes, true, "delta ")?,
            pos: 0,
        };
        let meta = DeltaMeta::header(&mut r)?;
        let mut fields = Vec::new();
        decode_fields(&mut r, &mut fields)?;
        Ok(DeltaView { meta, fields })
    }
}

/// Where [`decode_fields`] hands each field's payload. It reads the bytes
/// itself, from `r`, exactly as many as announced: `len` for a whole
/// field, the `ranges`' lengths back to back for a sparse one. The decoder
/// has already checked that the body holds them.
pub(crate) trait Patch<I> {
    /// Field `name` is replaced whole by the next `len` bytes.
    fn whole(&mut self, r: &mut I, name: String, len: usize) -> Result<()>;

    /// Field `name`, `full_len` bytes long, is patched at each `(offset,
    /// len)` of `ranges` in order (last writer wins) by the next bytes.
    fn sparse(
        &mut self,
        r: &mut I,
        name: String,
        full_len: u64,
        ranges: &[(u64, usize)],
    ) -> Result<()>;
}

/// The one `PPARDLT1` decoder past the header: every field's descriptor
/// (name, kind, lengths, range map) up to the CRC trailer, each payload
/// handed to `patch` — a view lending slices of a record in memory, or a
/// fold reading a streamed record straight into its merged record.
pub(crate) fn decode_fields<I: Input>(r: &mut I, patch: &mut impl Patch<I>) -> Result<()> {
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
                patch.whole(r, name, len)?;
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
                patch.sparse(r, name, full_len, &map)?;
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

/// A view's fields: each payload is a slice of the parsed record.
impl<'a> Patch<Reader<'a>> for Vec<(String, DeltaPayload<'a>)> {
    fn whole(&mut self, r: &mut Reader<'a>, name: String, len: usize) -> Result<()> {
        self.push((name, DeltaPayload::Full(r.take(len)?)));
        Ok(())
    }

    fn sparse(
        &mut self,
        r: &mut Reader<'a>,
        name: String,
        full_len: u64,
        ranges: &[(u64, usize)],
    ) -> Result<()> {
        let ranges = ranges.iter().map(|&(off, len)| Ok((off, r.take(len)?)));
        let ranges = ranges.collect::<Result<_>>()?;
        self.push((name, DeltaPayload::Sparse { full_len, ranges }));
        Ok(())
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
        decode_fields(r, self)?;
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
}

/// The fold's patches land in the record, or in the side table.
impl<I: Input> Patch<I> for Merged {
    fn whole(&mut self, r: &mut I, name: String, len: usize) -> Result<()> {
        let idx = self.field(&name)?;
        let span = self.fields[idx].1.clone();
        if len == span.len() {
            self.replaced[idx] = None;
            return r.fill(&mut self.record[span]);
        }
        let side = self.replaced[idx].get_or_insert_with(Vec::new);
        side.clear();
        side.resize(len, 0);
        r.fill(side)
    }

    fn sparse(
        &mut self,
        r: &mut I,
        name: String,
        full_len: u64,
        ranges: &[(u64, usize)],
    ) -> Result<()> {
        let idx = self.field(&name)?;
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

    fn sparse<'a>(full_len: u64, ranges: Vec<(u64, &'a [u8])>) -> DeltaPayload<'a> {
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

    fn delta<'a>(count: u64, fields: Vec<(&str, DeltaPayload<'a>)>) -> DeltaView<'a> {
        DeltaView {
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

    /// `d` laid out by hand (any offset, however absurd, is written as
    /// given), CRC trailer included.
    fn encode(d: &DeltaView<'_>) -> Vec<u8> {
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
        for (name, payload) in &d.fields {
            put_bytes(&mut out, name.as_bytes());
            match payload {
                DeltaPayload::Full(b) => {
                    out.push(0);
                    put_bytes(&mut out, b);
                }
                DeltaPayload::Sparse { full_len, ranges } => {
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

    /// Fold the records of `deltas` onto the encoded [`base`], each record
    /// streamed and CRC-checked as the fold reads it off a medium.
    fn fold(deltas: &[DeltaView<'_>]) -> Result<Snapshot> {
        let record = base().encode();
        let mut merged = Merged::of_base(record[..record.len() - 4].to_vec())?;
        for d in deltas {
            let rec = encode(d);
            // Each record also parses to exactly the view it was made from.
            assert_eq!(&DeltaView::of_record(&rec).unwrap(), d);
            let src = OnDisk::new(Box::new(std::io::Cursor::new(&rec[..])), None);
            let mut r = RecordStream::new(src, rec.len() as u64, "delta ")?;
            merged.apply(&DeltaMeta::header(&mut r)?, &mut r)?;
            r.end()?;
        }
        Ok(merged.view().to_snapshot())
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

    /// A sparse record carries its touched bytes and their range map, not
    /// the field: its size does not follow the field's length, and each
    /// carried byte adds exactly one byte to it.
    #[test]
    fn a_sparse_record_carries_only_its_touched_bytes() {
        let meta = delta(11, vec![]).meta;
        let record = |full_len: u64, ranges: &[std::ops::Range<usize>], payload: &[u8]| {
            let field = DeltaSource::DirtyBytes {
                full_len,
                ranges,
                payload,
            };
            let (_, bytes) = Record::Delta(&meta, &[("G", field)])
                .encode(Vec::new())
                .unwrap();
            bytes
        };
        let small = record(100, &[0..3, 50..54], &[7; 7]);
        assert_eq!(record(1 << 30, &[0..3, 50..54], &[7; 7]).len(), small.len());
        assert_eq!(
            record(100, &[0..3, 50..59], &[7; 12]).len(),
            small.len() + 5
        );

        let view = DeltaView::of_record(&small).unwrap();
        let [(_, DeltaPayload::Sparse { full_len, ranges })] = &view.fields[..] else {
            panic!("one sparse field: {:?}", view.fields);
        };
        assert_eq!(*full_len, 100);
        assert_eq!(ranges.iter().map(|(_, b)| b.len()).sum::<usize>(), 7);
    }
}
