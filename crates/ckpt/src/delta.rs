//! Delta snapshot records: the incremental half of the checkpoint format.
//!
//! A *delta* persists only the bytes written since the previous snapshot
//! (full or delta), as reported by the containers' chunked dirty tracking
//! ([`ppar_core::state::StateCell::dirty_ranges`]). A checkpoint directory
//! in incremental mode therefore holds one *base* full snapshot plus a
//! numbered *delta chain*; restore folds the chain onto the base
//! (last-writer-wins per byte) and yields a [`Snapshot`] byte-identical to
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

use ppar_core::error::{PparError, Result};

use crate::crc::crc32;
use crate::store::{Reader, Snapshot, MASTER_RANK};

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

/// One field's content inside a delta record.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaPayload {
    /// The whole field (containers without write tracking).
    Full(Vec<u8>),
    /// Only the touched byte ranges of a `full_len`-byte field payload.
    Sparse {
        /// Total length the merged field payload must have.
        full_len: u64,
        /// `(offset, bytes)` patches, applied in order (last writer wins).
        ranges: Vec<(u64, Vec<u8>)>,
    },
}

impl DeltaPayload {
    /// Bytes this payload contributes to the delta file (the savings signal:
    /// compare against the field's full length).
    pub fn payload_bytes(&self) -> usize {
        match self {
            DeltaPayload::Full(b) => b.len(),
            DeltaPayload::Sparse { ranges, .. } => ranges.iter().map(|(_, b)| b.len()).sum(),
        }
    }
}

/// A decoded delta record.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaSnapshot {
    /// Header.
    pub meta: DeltaMeta,
    /// Field name → delta payload, in `SafeData` declaration order.
    pub fields: Vec<(String, DeltaPayload)>,
}

impl DeltaMeta {
    /// Integrity-check a delta file and decode only its header — no field
    /// payloads are materialized. Lets the restart-target computation walk
    /// a chain at CRC + header cost instead of performing the full merge
    /// twice (once for the count, once for the actual load).
    pub fn decode(bytes: &[u8]) -> Result<DeltaMeta> {
        let (body, _) = DeltaSnapshot::check_crc(bytes)?;
        let mut r = Reader { buf: body, pos: 0 };
        DeltaSnapshot::decode_header(&mut r)
    }

    /// Header-only decode of an in-memory delta record (no CRC
    /// re-verification; see [`crate::store::Snapshot`]'s trusted decode).
    pub(crate) fn decode_trusted(bytes: &[u8]) -> Result<DeltaMeta> {
        if bytes.len() < DELTA_MAGIC.len() + 4 {
            return Err(PparError::CorruptCheckpoint(
                "delta record too short".into(),
            ));
        }
        let mut r = Reader {
            buf: &bytes[..bytes.len() - 4],
            pos: 0,
        };
        DeltaSnapshot::decode_header(&mut r)
    }
}

impl DeltaSnapshot {
    fn check_crc(bytes: &[u8]) -> Result<(&[u8], u32)> {
        if bytes.len() < DELTA_MAGIC.len() + 4 {
            return Err(PparError::CorruptCheckpoint("delta file too short".into()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(body) != stored_crc {
            return Err(PparError::CorruptCheckpoint(format!(
                "delta CRC mismatch: stored {stored_crc:#010x}, computed {:#010x}",
                crc32(body)
            )));
        }
        Ok((body, stored_crc))
    }

    pub(crate) fn decode_header(r: &mut Reader<'_>) -> Result<DeltaMeta> {
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

    /// Decode and integrity-check one delta file.
    pub fn decode(bytes: &[u8]) -> Result<DeltaSnapshot> {
        let (body, _) = DeltaSnapshot::check_crc(bytes)?;
        DeltaSnapshot::decode_body(body)
    }

    /// Decode a delta record held in process memory (see
    /// [`crate::store::Snapshot`]'s trusted decode): structural validation
    /// only, no CRC re-verification.
    pub(crate) fn decode_trusted(bytes: &[u8]) -> Result<DeltaSnapshot> {
        if bytes.len() < DELTA_MAGIC.len() + 4 {
            return Err(PparError::CorruptCheckpoint(
                "delta record too short".into(),
            ));
        }
        DeltaSnapshot::decode_body(&bytes[..bytes.len() - 4])
    }

    fn decode_body(body: &[u8]) -> Result<DeltaSnapshot> {
        let mut r = Reader { buf: body, pos: 0 };
        let meta = DeltaSnapshot::decode_header(&mut r)?;
        let nfields = r.take_u32()?;
        let mut fields = Vec::with_capacity(nfields as usize);
        for _ in 0..nfields {
            let name = r.take_str()?;
            let kind = r.take(1)?[0];
            let payload = match kind {
                0 => {
                    let len = r.take_u64()? as usize;
                    DeltaPayload::Full(r.take(len)?.to_vec())
                }
                1 => {
                    let full_len = r.take_u64()?;
                    let nranges = r.take_u32()?;
                    let mut spans = Vec::with_capacity(nranges as usize);
                    for _ in 0..nranges {
                        let off = r.take_u64()?;
                        let len = r.take_u64()?;
                        spans.push((off, len));
                    }
                    let mut ranges = Vec::with_capacity(spans.len());
                    for (off, len) in spans {
                        ranges.push((off, r.take(len as usize)?.to_vec()));
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
        if r.pos != body.len() {
            return Err(PparError::CorruptCheckpoint(format!(
                "{} unconsumed bytes before delta CRC",
                body.len() - r.pos
            )));
        }
        Ok(DeltaSnapshot { meta, fields })
    }

    /// Fold this delta onto `base` in place (last writer wins per byte).
    /// `base` must be the chain's base snapshot with every earlier delta
    /// already applied; on success its `count` advances to this delta's.
    pub fn apply_to(&self, base: &mut Snapshot) -> Result<()> {
        if self.meta.rank != base.rank {
            return Err(PparError::FormatMismatch {
                expected: format!("delta for rank {:?}", base.rank),
                found: format!("rank {:?}", self.meta.rank),
            });
        }
        if self.meta.nranks != base.nranks {
            return Err(PparError::FormatMismatch {
                expected: format!("{} ranks", base.nranks),
                found: format!("{} ranks", self.meta.nranks),
            });
        }
        for (name, payload) in &self.fields {
            let slot = base
                .fields
                .iter_mut()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b)
                .ok_or_else(|| {
                    PparError::CorruptCheckpoint(format!(
                        "delta patches field {name:?} missing from the base snapshot"
                    ))
                })?;
            match payload {
                DeltaPayload::Full(bytes) => {
                    slot.clear();
                    slot.extend_from_slice(bytes);
                }
                DeltaPayload::Sparse { full_len, ranges } => {
                    if slot.len() as u64 != *full_len {
                        return Err(PparError::CorruptCheckpoint(format!(
                            "delta field {name:?} expects a {full_len}-byte payload, \
                             base has {} bytes",
                            slot.len()
                        )));
                    }
                    for (off, bytes) in ranges {
                        let start = *off as usize;
                        let end = start
                            .checked_add(bytes.len())
                            .filter(|&e| e <= slot.len())
                            .ok_or_else(|| {
                                PparError::CorruptCheckpoint(format!(
                                    "delta field {name:?} range {off}+{} overruns the \
                                     {}-byte payload",
                                    bytes.len(),
                                    slot.len()
                                ))
                            })?;
                        slot[start..end].copy_from_slice(bytes);
                    }
                }
            }
        }
        base.count = self.meta.count;
        base.mode_tag = self.meta.mode_tag.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(full_len: u64, ranges: Vec<(u64, Vec<u8>)>) -> DeltaPayload {
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

    fn delta(count: u64, fields: Vec<(String, DeltaPayload)>) -> DeltaSnapshot {
        DeltaSnapshot {
            meta: DeltaMeta {
                mode_tag: "seq".into(),
                count,
                base_count: 10,
                seq: 1,
                rank: None,
                nranks: 1,
            },
            fields,
        }
    }

    #[test]
    fn sparse_patches_apply_last_writer_wins() {
        let mut snap = base();
        let d = delta(
            12,
            vec![(
                "G".into(),
                sparse(16, vec![(0, vec![9; 8]), (4, vec![7; 4])]),
            )],
        );
        d.apply_to(&mut snap).unwrap();
        assert_eq!(
            snap.field("G").unwrap(),
            &[9, 9, 9, 9, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(snap.count, 12);
    }

    #[test]
    fn full_payload_replaces_field() {
        let mut snap = base();
        let d = delta(11, vec![("energy".into(), DeltaPayload::Full(vec![8, 8]))]);
        d.apply_to(&mut snap).unwrap();
        assert_eq!(snap.field("energy").unwrap(), &[8, 8]);
        assert_eq!(snap.field("G").unwrap().len(), 16, "untouched field kept");
    }

    #[test]
    fn apply_rejects_bad_shapes() {
        // Unknown field.
        let mut snap = base();
        let d = delta(11, vec![("missing".into(), DeltaPayload::Full(vec![1]))]);
        assert!(d.apply_to(&mut snap).is_err());

        // Length mismatch on a sparse payload.
        let mut snap = base();
        let d = delta(11, vec![("G".into(), sparse(99, vec![]))]);
        assert!(d.apply_to(&mut snap).is_err());

        // Range overrun.
        let mut snap = base();
        let d = delta(11, vec![("G".into(), sparse(16, vec![(12, vec![0; 8])]))]);
        assert!(d.apply_to(&mut snap).is_err());

        // Rank / nranks mismatch.
        let mut snap = base();
        let mut d = delta(11, vec![]);
        d.meta.rank = Some(3);
        assert!(d.apply_to(&mut snap).is_err());
        let mut snap = base();
        let mut d = delta(11, vec![]);
        d.meta.nranks = 4;
        assert!(d.apply_to(&mut snap).is_err());
    }

    #[test]
    fn payload_bytes_counts_only_carried_bytes() {
        assert_eq!(DeltaPayload::Full(vec![0; 5]).payload_bytes(), 5);
        assert_eq!(
            sparse(100, vec![(0, vec![0; 3]), (50, vec![0; 4])]).payload_bytes(),
            7
        );
    }
}
