//! The adaptation controller: reshape requests, honoured at safe points.
//!
//! The paper assumes an *external* resource-selection tool decides when the
//! resource set changes (§I: "the adequate set of resources committed to the
//! application is identified with other tools"); this controller is the
//! interface between such a tool and the engines. Requests arrive either
//! asynchronously ([`AdaptationController::request`]) or from a scripted
//! [`ResourceTimeline`] (the experiments' stand-in for a Grid resource
//! manager); engines poll once per safe-point crossing and apply the reshape
//! via the protocol of §IV.B.

use std::sync::Arc;

use ppar_core::ctx::{AdaptHook, Ctx};
use ppar_core::mode::ExecMode;
use ppar_core::sync::{AtomicU64, Mutex, Ordering};

/// A scripted sequence of resource-availability events: "at safe-point
/// crossing `n`, the application should reshape to `mode`".
#[derive(Debug, Clone, Default)]
pub struct ResourceTimeline {
    events: Vec<(u64, ExecMode)>,
}

impl ResourceTimeline {
    /// Empty timeline.
    pub fn new() -> Self {
        ResourceTimeline::default()
    }

    /// Add an event (builder style). Crossings are 1-based.
    pub fn at(mut self, crossing: u64, mode: ExecMode) -> Self {
        self.events.push((crossing, mode));
        self.events.sort_by_key(|(c, _)| *c);
        self
    }

    /// The scripted events.
    pub fn events(&self) -> &[(u64, ExecMode)] {
        &self.events
    }
}

/// How an applied reshape was realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshapeKind {
    /// Realised with no process exit and no disk round-trip: an engine
    /// team retarget at the safe-point crossing, or an in-memory hand-off
    /// relaunch driven by [`crate::launch`].
    InPlace,
    /// Realised by checkpoint/restart through the on-disk store (the
    /// fallback, and the paper's Fig. 6 baseline).
    Restart,
}

/// One applied adaptation, as recorded by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedReshape {
    /// Safe-point crossing count when the reshape completed.
    pub crossing: u64,
    /// The mode the run continued in.
    pub mode: ExecMode,
    /// How the reshape was realised.
    pub kind: ReshapeKind,
}

/// Implements [`AdaptHook`]: tracks safe-point crossings, surfaces pending
/// reshape requests, records applied adaptations.
pub struct AdaptationController {
    crossings: AtomicU64,
    external: Mutex<Option<ExecMode>>,
    timeline: Mutex<Vec<(u64, ExecMode)>>,
    active: Mutex<Option<ExecMode>>,
    applied: Mutex<Vec<AppliedReshape>>,
}

impl AdaptationController {
    /// Controller with no scripted events.
    pub fn new() -> Arc<AdaptationController> {
        AdaptationController::with_timeline(ResourceTimeline::new())
    }

    /// Controller driven by a scripted timeline.
    pub fn with_timeline(timeline: ResourceTimeline) -> Arc<AdaptationController> {
        Arc::new(AdaptationController {
            crossings: AtomicU64::new(0),
            external: Mutex::new(None),
            timeline: Mutex::new(timeline.events),
            active: Mutex::new(None),
            applied: Mutex::new(Vec::new()),
        })
    }

    /// Asynchronous reshape request (e.g. from a resource monitor): applied
    /// at the next safe-point crossing. Overwrites any earlier unapplied
    /// request.
    pub fn request(&self, mode: ExecMode) {
        *self.external.lock() = Some(mode);
    }

    /// Safe-point crossings observed so far.
    pub fn crossings(&self) -> u64 {
        self.crossings.load(Ordering::SeqCst)
    }

    /// Applied adaptations as `(crossing, mode)` pairs (see
    /// [`AdaptationController::applied`] for the realisation kinds).
    pub fn history(&self) -> Vec<(u64, ExecMode)> {
        self.applied
            .lock()
            .iter()
            .map(|a| (a.crossing, a.mode))
            .collect()
    }

    /// Applied adaptations with their realisation kinds.
    pub fn applied(&self) -> Vec<AppliedReshape> {
        self.applied.lock().clone()
    }

    /// Record that the pending request was realised by checkpoint/restart
    /// (the fallback path): clears it like [`AdaptHook::confirm`] but tags
    /// the history entry [`ReshapeKind::Restart`]. Restart drivers call
    /// this after relaunching in the target mode.
    pub fn confirm_restart(&self, mode: ExecMode) {
        self.confirm_kind(mode, ReshapeKind::Restart);
    }

    fn confirm_kind(&self, mode: ExecMode, kind: ReshapeKind) {
        // Idempotent per request: rank-shared views may deliver the same
        // decision to several elements (each applies it, each confirms);
        // only the first confirmation of the in-flight request records.
        let mut active = self.active.lock();
        if *active != Some(mode) {
            return;
        }
        *active = None;
        drop(active);
        let crossing = self.crossings.load(Ordering::SeqCst);
        self.applied.lock().push(AppliedReshape {
            crossing,
            mode,
            kind,
        });
    }
}

impl AdaptHook for AdaptationController {
    fn pending(&self, _ctx: &Ctx, _name: &str) -> Option<ExecMode> {
        let c = self.crossings.fetch_add(1, Ordering::SeqCst) + 1;
        // An in-flight decision stays pending until confirmed.
        if let Some(mode) = *self.active.lock() {
            return Some(mode);
        }
        // External requests take precedence over the script.
        if let Some(mode) = self.external.lock().take() {
            *self.active.lock() = Some(mode);
            return Some(mode);
        }
        let mut timeline = self.timeline.lock();
        if let Some(&(at, mode)) = timeline.first() {
            if c >= at {
                timeline.remove(0);
                *self.active.lock() = Some(mode);
                return Some(mode);
            }
        }
        None
    }

    fn confirm(&self, mode: ExecMode) {
        self.confirm_kind(mode, ReshapeKind::InPlace);
    }

    fn note_skipped(&self, n: u64) {
        // A region-cursor fast-forward elapsed `n` crossings without
        // executing them. Advancing the ordinal keeps timeline triggers
        // anchored to the safe-point clock: an entry whose `at` falls
        // inside the skipped span fires at the next polled crossing
        // (`c >= at`), exactly as if the poll had happened late.
        self.crossings.fetch_add(n, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// rank-shared views
// ---------------------------------------------------------------------------

/// Shared decision log behind [`RankAdaptView`]: every aggregate element
/// executes the same safe-point crossing sequence (SPMD discipline), so
/// crossing `k` on rank `r` corresponds to crossing `k` on rank 0. The
/// first element to reach a crossing asks the real controller once; every
/// other element reads the memoised answer — preserving the controller's
/// "polled exactly once per crossing" contract across a whole simulated
/// aggregate.
struct RankSharedDecisions {
    inner: Arc<AdaptationController>,
    decisions: Mutex<Vec<Option<ExecMode>>>,
}

/// One aggregate element's view of a shared [`AdaptationController`]:
/// install one per rank to drive run-time adaptation of distributed and
/// hybrid runs (each rank polls its own crossings; decisions are shared).
pub struct RankAdaptView {
    shared: Arc<RankSharedDecisions>,
    rank: usize,
    crossing: AtomicU64,
}

impl AdaptationController {
    /// Per-rank views over this controller for an `n`-element aggregate.
    pub fn rank_views(self: &Arc<Self>, n: usize) -> Vec<Arc<RankAdaptView>> {
        let shared = Arc::new(RankSharedDecisions {
            inner: self.clone(),
            decisions: Mutex::new(Vec::new()),
        });
        (0..n.max(1))
            .map(|rank| {
                Arc::new(RankAdaptView {
                    shared: shared.clone(),
                    rank,
                    crossing: AtomicU64::new(0),
                })
            })
            .collect()
    }
}

impl AdaptHook for RankAdaptView {
    fn pending(&self, ctx: &Ctx, name: &str) -> Option<ExecMode> {
        let idx = self.crossing.fetch_add(1, Ordering::SeqCst) as usize;
        let mut decisions = self.shared.decisions.lock();
        // This rank polled every earlier crossing itself, so the log can be
        // at most one entry short here — and exactly this rank extends it.
        if decisions.len() == idx {
            let d = self.shared.inner.pending(ctx, name);
            decisions.push(d);
        }
        decisions[idx]
    }

    fn confirm(&self, mode: ExecMode) {
        // Every rank applies the shared decision; rank 0 records it (the
        // controller's confirm is idempotent per request regardless).
        if self.rank == 0 {
            self.shared.inner.confirm(mode);
        }
    }

    fn note_skipped(&self, n: u64) {
        // Every rank fast-forwards over the same span (SPMD discipline):
        // the first one through pads the shared log — recording "nothing
        // pending" for each skipped crossing and advancing the underlying
        // controller's ordinal exactly once — and peers only advance their
        // own index.
        let idx = self.crossing.fetch_add(n, Ordering::SeqCst) as usize;
        let mut decisions = self.shared.decisions.lock();
        while decisions.len() < idx + n as usize {
            decisions.push(None);
            self.shared.inner.note_skipped(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::ctx::{Ctx, RunShared, SeqEngine};
    use ppar_core::plan::Plan;
    use ppar_core::state::Registry;

    fn dummy_ctx() -> Ctx {
        Ctx::new_root(RunShared::new(
            Arc::new(Plan::new()),
            Arc::new(Registry::new()),
            Arc::new(SeqEngine),
            None,
            None,
        ))
    }

    #[test]
    fn timeline_fires_in_order() {
        let t = ResourceTimeline::new()
            .at(5, ExecMode::smp(8))
            .at(2, ExecMode::smp(4));
        assert_eq!(t.events()[0].0, 2, "events sort by crossing");
        let ctrl = AdaptationController::with_timeline(t);
        let ctx = dummy_ctx();
        assert_eq!(ctrl.pending(&ctx, "p"), None); // crossing 1
        let got = ctrl.pending(&ctx, "p"); // crossing 2
        assert_eq!(got, Some(ExecMode::smp(4)));
        ctrl.confirm(ExecMode::smp(4));
        assert_eq!(ctrl.pending(&ctx, "p"), None); // crossing 3
        assert_eq!(ctrl.pending(&ctx, "p"), None); // crossing 4
        assert_eq!(ctrl.pending(&ctx, "p"), Some(ExecMode::smp(8))); // 5
        ctrl.confirm(ExecMode::smp(8));
        assert_eq!(ctrl.history().len(), 2);
    }

    #[test]
    fn request_stays_pending_until_confirmed() {
        let ctrl = AdaptationController::new();
        let ctx = dummy_ctx();
        ctrl.request(ExecMode::smp(6));
        assert_eq!(ctrl.pending(&ctx, "p"), Some(ExecMode::smp(6)));
        // Not confirmed yet: subsequent crossings still see it.
        assert_eq!(ctrl.pending(&ctx, "p"), Some(ExecMode::smp(6)));
        ctrl.confirm(ExecMode::smp(6));
        assert_eq!(ctrl.pending(&ctx, "p"), None);
        assert_eq!(ctrl.history(), vec![(2, ExecMode::smp(6))]);
    }

    #[test]
    fn external_request_overrides_timeline() {
        let ctrl =
            AdaptationController::with_timeline(ResourceTimeline::new().at(1, ExecMode::smp(2)));
        let ctx = dummy_ctx();
        ctrl.request(ExecMode::smp(16));
        assert_eq!(ctrl.pending(&ctx, "p"), Some(ExecMode::smp(16)));
        ctrl.confirm(ExecMode::smp(16));
        // The timeline event (crossing 1 already passed) fires next.
        assert_eq!(ctrl.pending(&ctx, "p"), Some(ExecMode::smp(2)));
    }

    #[test]
    fn crossings_count_polls() {
        let ctrl = AdaptationController::new();
        let ctx = dummy_ctx();
        for _ in 0..7 {
            ctrl.pending(&ctx, "p");
        }
        assert_eq!(ctrl.crossings(), 7);
    }
}
