//! An [`Exit`] is control flow, not a failure: leaving a region at a safe
//! point never reaches the process's panic hook, so the library has no
//! reason to replace it. This file holds one test and is its own process —
//! the hook is process-global, and no other test's deliberate panic may
//! land in the count.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use ppar_core::ctx::{AdaptHook, CkptHook, Ctx, Installed, PointDirective};
use ppar_core::error::Result;
use ppar_core::mode::ExecMode;
use ppar_core::plan::{Plan, Plug, PointSet};
use ppar_core::runtime::{catch_exit, run_smp, Exit};

/// One standing reshape request, pending until an engine confirms it.
struct Request {
    mode: ExecMode,
    confirmed: AtomicBool,
}

impl Request {
    fn new(mode: ExecMode) -> Arc<Request> {
        Arc::new(Request {
            mode,
            confirmed: AtomicBool::new(false),
        })
    }
}

impl AdaptHook for Request {
    fn pending(&self, _ctx: &Ctx, _name: &str) -> Option<ExecMode> {
        (!self.confirmed.load(Ordering::SeqCst)).then_some(self.mode)
    }

    fn confirm(&self, _mode: ExecMode) {
        self.confirmed.store(true, Ordering::SeqCst);
    }
}

/// A checkpoint hook that never checkpoints and always has a hand-off armed.
#[derive(Default)]
struct Handoff {
    streamed: AtomicUsize,
}

impl CkptHook for Handoff {
    fn at_point(&self, _ctx: &Ctx, _name: &str) -> PointDirective {
        PointDirective::Continue
    }
    fn skip_method(&self, _ctx: &Ctx, _name: &str) -> bool {
        false
    }
    fn replaying(&self) -> bool {
        false
    }
    fn take_snapshot(&self, _ctx: &Ctx) -> Result<()> {
        Ok(())
    }
    fn load_snapshot(&self, _ctx: &Ctx) -> Result<Installed> {
        Ok(Installed::Root)
    }
    fn sync_thread_clock(&self, _count: u64) {}
    fn count(&self) -> u64 {
        0
    }
    fn finish(&self, _ctx: &Ctx) -> Result<()> {
        Ok(())
    }
    fn can_handoff(&self) -> bool {
        true
    }
    fn handoff_snapshot(&self, _ctx: &Ctx) -> Result<()> {
        self.streamed.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn a_drain_and_an_escalation_never_reach_the_panic_hook() {
    let plan = Arc::new(
        Plan::new()
            .plug(Plug::ParallelMethod { method: "r".into() })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["sp".into()]),
                every: 0,
            }),
    );
    // Count from after a first run: a hook the library installed at start-up
    // to silence its own unwinds would be replaced here, not wrapped around
    // the counter where it could hide them.
    run_smp(plan.clone(), 2, None, None, |ctx| ctx.region("r", |_| {}));
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    // Contraction 4 -> 2: workers 2 and 3 leave with `Exit::Drained`.
    let passed = AtomicUsize::new(0);
    let shrink = Request::new(ExecMode::SharedMemory { threads: 2 });
    run_smp(plan.clone(), 4, None, Some(shrink), |ctx| {
        ctx.region("r", |ctx| {
            ctx.point("sp");
            passed.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(passed.load(Ordering::SeqCst), 2, "two of four drained");

    // Escalation smp2 -> dist2: the leader streams the hand-off, both lines
    // leave with `Exit::Reshape`, the master's reaches the caller.
    let passed = AtomicUsize::new(0);
    let handoff = Arc::new(Handoff::default());
    let target = ExecMode::Distributed { processes: 2 };
    let exit = catch_exit(|| {
        run_smp(
            plan,
            2,
            Some(handoff.clone()),
            Some(Request::new(target)),
            |ctx| {
                ctx.region("r", |ctx| {
                    ctx.point("sp");
                    passed.fetch_add(1, Ordering::SeqCst);
                });
            },
        )
    });
    assert_eq!(exit, Err(Exit::Reshape(target)));
    assert_eq!(
        passed.load(Ordering::SeqCst),
        0,
        "nobody got past the point"
    );
    assert_eq!(handoff.streamed.load(Ordering::SeqCst), 1);

    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 0, "an exit ran the hook");
    // The hook is armed and this process's own: a real panic still runs it.
    assert!(std::panic::catch_unwind(|| panic!("a real panic")).is_err());
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 1);
}
