//! The live hand-off: the predecessor's state, frozen.
//!
//! At an escalated reshape crossing every line of execution leaves with
//! `Exit::Reshape`, so nothing writes the predecessor's safe-data cells
//! again. A [`Handoff`] therefore keeps the cells themselves — the
//! root's, complete after the engine's pre-hand-off gather — instead of
//! encoding them into a record, and the successor reads them through the
//! ordinary [`CkptTransport`] seam: the lend, [`CkptTransport::with_merged`],
//! hands out a [`SnapshotView`] whose payloads are the cells' own bytes
//! ([`StateCell::encoded`]). A cell whose memory is not its encoding
//! (`ValueCell`, the task frontier: a few bytes each) is encoded once, at
//! capture. So an escalated reshape allocates no record and copies the state
//! once, predecessor cells → successor cells, in the successor's install.
//!
//! A hand-off is read-only ([`CkptTransport::begin`] refuses) and holds one
//! master record at one safe point: `restart_count` is that point, a shard
//! chain is absent, and a read pinned to another point is an error.

use std::sync::Arc;

use ppar_core::error::{PparError, Result};
use ppar_core::runtime::PROGRESS_FIELD;
use ppar_core::state::StateCell;

use crate::store::{SnapshotMeta, SnapshotView};
use crate::transport::{CkptTransport, RecordKey, RecordSink};

/// One field of a frozen hand-off.
enum Frozen {
    /// A cell whose memory is its encoding, lent where it lies.
    Lent(Arc<dyn StateCell>),
    /// A cell's encoding, made at capture.
    Encoded(Vec<u8>),
}

/// The predecessor's state at an escalated crossing, read by the successor
/// as a read-only checkpoint medium (see the [module docs](self)).
pub struct Handoff {
    meta: SnapshotMeta,
    fields: Vec<(String, Frozen)>,
}

impl Handoff {
    /// Freeze `cells` — the safe data, in declaration order, which nothing
    /// writes again — under `meta`, followed by `progress`, the encoded
    /// `PPARPRG1` cursor.
    pub(crate) fn capture(
        meta: SnapshotMeta,
        cells: Vec<(String, Arc<dyn StateCell>)>,
        progress: Vec<u8>,
    ) -> Handoff {
        let frozen = cells.into_iter().map(|(name, cell)| {
            let field = match cell.encoded() {
                Some(_) => Frozen::Lent(cell),
                None => Frozen::Encoded(cell.save_bytes()),
            };
            (name, field)
        });
        let progress = (PROGRESS_FIELD.to_string(), Frozen::Encoded(progress));
        Handoff {
            meta,
            fields: frozen.chain([progress]).collect(),
        }
    }

    /// Payload bytes the hand-off holds, lent and encoded.
    pub(crate) fn payload_bytes(&self) -> u64 {
        let len = |field: &Frozen| match field {
            Frozen::Lent(cell) => cell.byte_len(),
            Frozen::Encoded(bytes) => bytes.len(),
        };
        self.fields.iter().map(|(_, f)| len(f) as u64).sum()
    }
}

impl CkptTransport for Handoff {
    fn describe(&self) -> &'static str {
        "hand-off"
    }

    fn begin<'a>(&'a self, key: RecordKey, _len_hint: u64) -> Result<Box<dyn RecordSink + 'a>> {
        Err(PparError::ContractViolation(format!(
            "a live hand-off is read-only: cannot put {key:?} into it"
        )))
    }

    fn with_merged(
        &self,
        rank: Option<u32>,
        at: Option<u64>,
        read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>,
    ) -> Result<bool> {
        if rank.is_some() {
            return Ok(false);
        }
        if let Some(at) = at.filter(|&at| at != self.meta.count) {
            return Err(PparError::CorruptCheckpoint(format!(
                "the hand-off holds safe point {}, not {at}",
                self.meta.count
            )));
        }
        let fields = self.fields.iter().map(|(name, field)| {
            let bytes = match field {
                Frozen::Lent(cell) => cell.encoded().ok_or_else(|| {
                    PparError::CorruptCheckpoint(format!(
                        "hand-off field {name:?} no longer lends its encoding"
                    ))
                })?,
                Frozen::Encoded(bytes) => bytes.as_slice(),
            };
            Ok((name.clone(), bytes))
        });
        let view = SnapshotView {
            meta: self.meta.clone(),
            fields: fields.collect::<Result<_>>()?,
        };
        read(&view).map(|()| true)
    }

    fn restart_count(&self) -> Result<Option<u64>> {
        Ok(Some(self.meta.count))
    }

    /// A hand-off has no delta chain.
    fn clear_deltas(&self, _rank: Option<u32>) -> Result<()> {
        Ok(())
    }

    fn clear_all_deltas(&self) -> Result<()> {
        Ok(())
    }
}
