//! The live hand-off: the predecessor's state, frozen.
//!
//! At an escalated reshape crossing every line of execution leaves with
//! `Exit::Reshape`, so nothing writes the predecessor's safe-data cells
//! again. A [`Handoff`] therefore keeps the cells themselves — the
//! root's, complete after the engine's pre-hand-off gather — instead of
//! encoding them into a record, and the successor reads them through the
//! hand-off's own methods: [`Handoff::lend`] hands out a [`SnapshotView`]
//! whose payloads are the cells' own bytes ([`StateCell::encoded`]). A cell
//! whose memory is not its encoding (`ValueCell`, the task frontier: a few
//! bytes each) is encoded once, at capture. So an escalated reshape
//! allocates no record and copies the state once, predecessor cells →
//! successor cells, in the successor's install.
//!
//! A hand-off is not a checkpoint medium: it holds one master view at one
//! safe point ([`Handoff::count`]), takes no record and has no chain.

use std::sync::Arc;

use ppar_core::error::{PparError, Result};
use ppar_core::runtime::{RegionCursor, PROGRESS_FIELD};
use ppar_core::state::StateCell;

use crate::store::{SnapshotMeta, SnapshotView};

/// One field of a frozen hand-off.
enum Frozen {
    /// A cell whose memory is its encoding, lent where it lies.
    Lent(Arc<dyn StateCell>),
    /// A cell's encoding, made at capture.
    Encoded(Vec<u8>),
}

/// The predecessor's state at an escalated crossing, read by the successor
/// (see the [module docs](self)).
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

    /// The safe point the state was frozen at: the successor's replay
    /// target.
    pub fn count(&self) -> u64 {
        self.meta.count
    }

    /// Run `read` once over the frozen state as a master view, per field
    /// byte-identical to a full snapshot of it; its error is the call's.
    pub fn lend(&self, read: &mut dyn FnMut(&SnapshotView<'_>) -> Result<()>) -> Result<()> {
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
        read(&SnapshotView {
            meta: self.meta.clone(),
            fields: fields.collect::<Result<_>>()?,
        })
    }

    /// The `PPARPRG1` cursor frozen with the state; `None` when it does not
    /// decode (the resume then replays classically).
    pub fn cursor(&self) -> Option<RegionCursor> {
        self.fields.iter().find_map(|(name, field)| match field {
            Frozen::Encoded(bytes) if name == PROGRESS_FIELD => RegionCursor::decode(bytes).ok(),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::shared::SharedVec;
    use ppar_core::state::ValueCell;

    /// A cell that lends its memory is read where it lies, one that does
    /// not keeps the encoding it had at capture, and a progress field that
    /// does not decode leaves the hand-off without a cursor (the resume
    /// then replays classically) while its state still lends whole.
    #[test]
    fn a_handoff_lends_its_cells_and_reports_an_undecodable_cursor_as_none() {
        let v = Arc::new(SharedVec::from_vec(vec![1.5f64, -2.0, 0.25]));
        let e = Arc::new(ValueCell::new(7.0f64));
        let meta = SnapshotMeta {
            mode_tag: "seq".into(),
            count: 4,
            rank: None,
            nranks: 1,
        };
        let cells: Vec<(String, Arc<dyn StateCell>)> =
            vec![("V".into(), v.clone()), ("E".into(), e.clone())];
        let handoff = Handoff::capture(meta, cells, b"not a cursor".to_vec());
        let at_capture = e.save_bytes();
        e.set(-1.0);

        assert_eq!(handoff.count(), 4);
        assert!(handoff.cursor().is_none());
        assert_eq!(handoff.payload_bytes(), 3 * 8 + 8 + 12);
        let mut seen = Vec::new();
        handoff
            .lend(&mut |view| {
                assert_eq!(view.meta.count, 4);
                let lent = view.field("V").unwrap();
                assert!(std::ptr::eq(lent, v.encoded().unwrap()), "lent in place");
                seen = view
                    .fields
                    .iter()
                    .map(|(n, b)| (n.clone(), b.to_vec()))
                    .collect();
                Ok(())
            })
            .unwrap();
        let want: Vec<(String, Vec<u8>)> = vec![
            ("V".into(), v.save_bytes()),
            ("E".into(), at_capture),
            (PROGRESS_FIELD.into(), b"not a cursor".to_vec()),
        ];
        assert_eq!(seen, want);

        // The reader's error is the lend's.
        let refused = handoff.lend(&mut |_| Err(PparError::InvalidPlan("stop".into())));
        assert!(matches!(refused, Err(PparError::InvalidPlan(_))));
    }
}
