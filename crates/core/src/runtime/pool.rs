//! Persistent worker threads and the region-completion latch.
//!
//! Parallel methods fork their body onto pool workers and join before
//! returning, so the body may borrow the caller's stack (the runtime erases
//! the lifetime and the latch restores the guarantee). Workers persist
//! across regions — a team reshape (expansion) can dispatch *additional*
//! workers into a region that is already running, which is why the latch
//! supports [`Latch::add`] while the master is waiting.
//!
//! Dispatch is slot-based, not channel-based: each worker owns a fixed
//! [`RegionJob`] hand-off slot and runs a monomorphic region-execution loop,
//! so starting a region writes a plain struct and flips a flag — no
//! per-dispatch `Box<dyn FnOnce>` allocation, no mpsc machinery. Workers
//! wait on the flag between regions through [`sync::Gate`](Gate): they spin
//! briefly (the hot steady state of an iterative solver forking a region
//! per phase), then yield, then park when idle for longer. The master waits
//! on the latch through a gate of its own.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use super::constructs;
use crate::ctx::Ctx;
use crate::mode::ExecMode;
use crate::replay;
use crate::shared::set_current_worker;
use crate::sync::{cores, AtomicBool, AtomicIsize, Gate, Mutex, Ordering};

/// A count-down latch whose count can grow while waited on (expansion adds
/// workers to a live region). The count is a plain atomic; the gate's lock
/// is only touched on the park path, so a region join whose workers finish
/// while the master is still yielding costs no futex traffic at all.
pub struct Latch {
    count: AtomicIsize,
    gate: Gate,
}

impl Latch {
    /// Latch expecting `n` completions.
    pub fn new(n: usize) -> Arc<Latch> {
        Arc::new(Latch {
            count: AtomicIsize::new(n as isize),
            gate: Gate::default(),
        })
    }

    /// Expect `k` more completions (called before dispatching new workers).
    pub fn add(&self, k: usize) {
        self.count.fetch_add(k as isize, Ordering::SeqCst);
    }

    /// Record one completion.
    pub fn count_down(&self) {
        if self.count.fetch_sub(1, Ordering::SeqCst) - 1 <= 0 {
            self.gate.wake();
        }
    }

    /// Block until all expected completions happened.
    pub fn wait(&self) {
        self.gate
            .wait(0, WAIT_YIELDS, || self.count.load(Ordering::SeqCst) <= 0);
    }

    /// Outstanding completions (for assertions).
    pub fn pending(&self) -> isize {
        self.count.load(Ordering::SeqCst)
    }
}

/// Yield rounds before a latch/pool wait parks.
const WAIT_YIELDS: usize = 16;

/// Why a line of execution leaves its region *at a safe point* instead of
/// returning from it (§IV.B). Base code announces `ctx.point()` and returns
/// nothing, so the only way out is to unwind; this is the one payload that
/// unwind carries, raised by [`leave`] and recognised by [`catch_exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// The team contracted and this worker is no longer part of it: it
    /// unwinds to the region boundary ("executing methods with empty
    /// operations until the end of the parallel region").
    Drained,
    /// The engine cannot realise the requested mode in place: the state was
    /// handed off through the checkpoint hook and every line of execution
    /// unwinds to the launcher, which relaunches in this mode in process —
    /// no exit, no disk round-trip.
    Reshape(ExecMode),
    /// A peer of the aggregate failed: the attempt is doomed, every line of
    /// execution unwinds for in-job recovery.
    Fault,
}

/// Leave the current region with `exit`. Built on `resume_unwind`, which
/// does not run the panic hook: an exit is control flow, not a failure, and
/// nothing is printed for it.
pub fn leave(exit: Exit) -> ! {
    resume_unwind(Box::new(exit))
}

/// Run `f`; an [`Exit`] it leaves with becomes data. Every other payload is
/// a real panic and keeps unwinding untouched.
pub fn catch_exit<T>(f: impl FnOnce() -> T) -> Result<T, Exit> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| match payload.downcast::<Exit>() {
        Ok(exit) => *exit,
        Err(other) => resume_unwind(other),
    })
}

/// Type-erased pointer to a region body (`&dyn Fn(&Ctx) + Sync`).
///
/// Safety: the pointee outlives the region — the forking thread joins the
/// region latch before returning from the parallel method — and the closure
/// is `Sync`, so shared references may cross threads.
#[derive(Clone, Copy)]
pub struct RegionBody(*const (dyn Fn(&Ctx) + Sync));

unsafe impl Send for RegionBody {}
unsafe impl Sync for RegionBody {}

impl RegionBody {
    /// Erase `body`'s lifetime. Caller promises the pointee outlives every
    /// dispatched job (enforced by joining the region latch).
    ///
    /// # Safety
    /// The returned handle must not be called after `body` is dropped.
    pub unsafe fn new(body: &(dyn Fn(&Ctx) + Sync)) -> RegionBody {
        let erased =
            std::mem::transmute::<&(dyn Fn(&Ctx) + Sync), &'static (dyn Fn(&Ctx) + Sync)>(body);
        RegionBody(erased as *const _)
    }

    /// # Safety
    /// See [`RegionBody::new`]: the pointee must still be alive.
    pub unsafe fn call(&self, ctx: &Ctx) {
        (*self.0)(ctx)
    }
}

/// Everything a pool worker needs to execute one parallel-region body as
/// team worker `ctx.worker()`: a fixed struct, written into the worker's
/// hand-off slot (no boxed closures).
pub struct RegionJob {
    /// The region body (lifetime-erased; see [`RegionBody`]).
    pub body: RegionBody,
    /// The worker's context (carries the worker id).
    pub ctx: Ctx,
    /// Expansion replay target: replay the body, counting safe points, and
    /// join the live team at this count (§IV.B). `None` forks live.
    pub replay_target: Option<u64>,
    /// The forking thread's safe-point clock, captured at dispatch time.
    pub ckpt_clock: u64,
    /// Region-completion latch.
    pub latch: Arc<Latch>,
    /// Sink for real (non-drain) worker panics.
    pub panics: Arc<Mutex<Vec<String>>>,
}

impl RegionJob {
    /// Execute the job on the current thread: the single definition of the
    /// worker-side region protocol (worker identity, construct sequence,
    /// checkpoint clock adoption, expansion replay, drain handling, panic
    /// capture, completion).
    pub fn run(self) {
        set_current_worker(self.ctx.worker());
        constructs::seq_reset();
        super::cursor::depth_reset();
        if let Some(ck) = self.ctx.ckpt_hook() {
            ck.sync_thread_clock(self.ckpt_clock);
        }
        if let Some(target) = self.replay_target {
            replay::begin(target);
        }
        // An `Exit` is a protocol unwind, not a failure: a drained worker is
        // done, and the master line carries a reshape or a fault to whoever
        // drives the run. Anything else is a real panic, reported at the join.
        // Safety: the region latch keeps the body alive until completion.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            catch_exit(|| unsafe { self.body.call(&self.ctx) })
        }));
        replay::end();
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            self.panics.lock().push(msg);
        }
        set_current_worker(0);
        self.latch.count_down();
    }
}

struct Slot {
    /// Fast-path flag: a job is armed (checked by the waiting worker
    /// without touching the lock).
    armed: AtomicBool,
    /// The hand-off cell.
    job: Mutex<Option<RegionJob>>,
    gate: Gate,
    shutdown: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            armed: AtomicBool::new(false),
            job: Mutex::new(None),
            gate: Gate::default(),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Worker side: wait for the next job. Idle spins come first only with
    /// real parallelism: on a single hardware thread spinning only delays
    /// the dispatching master (as for the barrier's budget). Returns `None`
    /// on shutdown.
    fn next_job(&self) -> Option<RegionJob> {
        let spins = if cores() > 1 { 512 } else { 0 };
        self.gate.wait(spins, WAIT_YIELDS, || {
            self.armed.load(Ordering::Acquire) || self.shutdown.load(Ordering::Acquire)
        });
        // Under the cell's lock `armed` says whether the cell is full.
        let mut cell = self.job.lock();
        self.armed.store(false, Ordering::Release);
        cell.take()
    }
}

/// A lazily grown pool of persistent worker threads. Slot `s` hosts team
/// worker `s + 1` (worker 0 is always the thread entering the region).
pub struct TeamPool {
    slots: Mutex<Vec<Arc<Slot>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    shutting_down: AtomicBool,
}

impl Default for TeamPool {
    fn default() -> Self {
        TeamPool::new()
    }
}

impl TeamPool {
    /// An empty pool; workers are spawned on first use.
    pub fn new() -> TeamPool {
        TeamPool {
            slots: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// Ensure at least `n` worker slots exist.
    pub fn ensure(&self, n: usize) {
        let mut slots = self.slots.lock();
        let mut handles = self.handles.lock();
        while slots.len() < n {
            let slot = Slot::new();
            let worker_slot = slot.clone();
            let index = slots.len();
            let handle = std::thread::Builder::new()
                .name(format!("ppar-worker-{}", index + 1))
                .spawn(move || {
                    while let Some(job) = worker_slot.next_job() {
                        job.run();
                    }
                })
                .expect("failed to spawn pool worker");
            slots.push(slot);
            handles.push(handle);
        }
    }

    /// Number of live worker slots.
    pub fn size(&self) -> usize {
        self.slots.lock().len()
    }

    /// Hand `job` to worker slot `slot` (grows the pool if needed).
    ///
    /// During teardown races (a crashed run's unwind dropping the engine
    /// while a reshape is in flight) the pool may already be shutting down;
    /// the job is then *drained gracefully* — its latch is counted down so
    /// the region join cannot hang — instead of aborting the process.
    pub fn dispatch(&self, slot: usize, job: RegionJob) {
        if self.shutting_down.load(Ordering::SeqCst) {
            job.latch.count_down();
            return;
        }
        self.ensure(slot + 1);
        let slot = self.slots.lock()[slot].clone();
        if slot.shutdown.load(Ordering::SeqCst) {
            job.latch.count_down();
            return;
        }
        let mut cell = slot.job.lock();
        debug_assert!(cell.is_none(), "slot already armed: regions never overlap");
        *cell = Some(job);
        slot.armed.store(true, Ordering::Release);
        drop(cell);
        slot.gate.wake();
    }
}

impl Drop for TeamPool {
    fn drop(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        for slot in self.slots.lock().iter() {
            slot.shutdown.store(true, Ordering::SeqCst);
            slot.gate.wake();
        }
        let me = std::thread::current().id();
        for handle in self.handles.lock().drain(..) {
            // The last engine handle can be dropped from inside a pool
            // worker (a crashed run's context unwinding on the worker that
            // observed the failure). A thread cannot join itself; that
            // worker is detached instead and exits on the shutdown flag.
            if handle.thread().id() == me {
                continue;
            }
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{Ctx, RunShared, SeqEngine};
    use crate::plan::Plan;
    use crate::state::Registry;
    use crate::sync::AtomicUsize;

    fn test_ctx(worker: usize) -> Ctx {
        Ctx::new_root(RunShared::new(
            Arc::new(Plan::new()),
            Arc::new(Registry::new()),
            Arc::new(SeqEngine),
            None,
            None,
        ))
        .for_worker(worker)
    }

    /// Dispatch `body` (as a region job) on `slot`, tracking completion on
    /// `latch`.
    fn job_on(
        body: &'static (dyn Fn(&Ctx) + Sync),
        worker: usize,
        latch: &Arc<Latch>,
    ) -> RegionJob {
        RegionJob {
            body: unsafe { RegionBody::new(body) },
            ctx: test_ctx(worker),
            replay_target: None,
            ckpt_clock: 0,
            latch: latch.clone(),
            panics: Arc::new(Mutex::new(Vec::new())),
        }
    }

    #[test]
    fn latch_blocks_until_all_done() {
        let latch = Latch::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let (l, h) = (latch.clone(), hits.clone());
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                h.fetch_add(1, Ordering::SeqCst);
                l.count_down();
            });
        }
        latch.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        assert_eq!(latch.pending(), 0);
    }

    #[test]
    fn latch_add_while_waiting() {
        let latch = Latch::new(1);
        let l2 = latch.clone();
        let waiter = std::thread::spawn(move || l2.wait());
        latch.add(1); // now expects 2
        latch.count_down();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "must still wait for the added worker"
        );
        latch.count_down();
        waiter.join().unwrap();
    }

    #[test]
    fn pool_runs_jobs_on_distinct_threads() {
        static IDS: Mutex<Vec<Option<String>>> = Mutex::new(Vec::new());
        static BODY: fn(&Ctx) = |_ctx| {
            IDS.lock()
                .push(std::thread::current().name().map(String::from));
        };
        let pool = TeamPool::new();
        let latch = Latch::new(4);
        for slot in 0..4 {
            pool.dispatch(slot, job_on(&BODY, slot + 1, &latch));
        }
        latch.wait();
        let mut names = IDS.lock().clone();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4, "each slot is its own thread");
        assert_eq!(pool.size(), 4);
    }

    #[test]
    fn pool_workers_are_reusable() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        static BODY: fn(&Ctx) = |_ctx| {
            COUNTER.fetch_add(1, Ordering::SeqCst);
        };
        let pool = TeamPool::new();
        for _round in 0..10 {
            let latch = Latch::new(2);
            for slot in 0..2 {
                pool.dispatch(slot, job_on(&BODY, slot + 1, &latch));
            }
            latch.wait();
        }
        assert_eq!(COUNTER.load(Ordering::SeqCst), 20);
        assert_eq!(pool.size(), 2, "pool does not grow beyond demand");
    }

    #[test]
    fn pool_collects_worker_panics() {
        static BODY: fn(&Ctx) = |_ctx| panic!("boom in worker");
        let pool = TeamPool::new();
        let latch = Latch::new(1);
        let panics = Arc::new(Mutex::new(Vec::new()));
        let mut job = job_on(&BODY, 1, &latch);
        job.panics = panics.clone();
        // Silence the default hook's backtrace for this expected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        pool.dispatch(0, job);
        latch.wait();
        std::panic::set_hook(prev);
        assert_eq!(panics.lock().as_slice(), ["boom in worker".to_string()]);
    }

    #[test]
    fn catch_exit_makes_an_exit_data_and_lets_every_other_payload_through() {
        assert_eq!(catch_exit(|| 7), Ok(7));
        let mode = ExecMode::SharedMemory { threads: 3 };
        assert_eq!(
            catch_exit(|| -> u8 { leave(Exit::Reshape(mode)) }),
            Err(Exit::Reshape(mode))
        );
        let other = catch_unwind(|| catch_exit(|| -> u8 { resume_unwind(Box::new(42u8)) }));
        assert_eq!(other.unwrap_err().downcast_ref::<u8>(), Some(&42));
    }

    #[test]
    fn pool_absorbs_an_exit_at_the_region_boundary() {
        static BODY: fn(&Ctx) = |_ctx| leave(Exit::Drained);
        let pool = TeamPool::new();
        let latch = Latch::new(1);
        let job = job_on(&BODY, 1, &latch);
        let panics = job.panics.clone();
        pool.dispatch(0, job);
        latch.wait();
        assert!(panics.lock().is_empty(), "an exit is not a worker panic");
    }

    #[test]
    fn pool_drop_joins_workers() {
        static BODY: fn(&Ctx) = |_ctx| {};
        let pool = TeamPool::new();
        let latch = Latch::new(1);
        pool.dispatch(0, job_on(&BODY, 1, &latch));
        latch.wait();
        drop(pool); // must not hang
    }

    #[test]
    fn dispatch_after_shutdown_drains_gracefully() {
        static BODY: fn(&Ctx) = |_ctx| {};
        let pool = TeamPool::new();
        let warm = Latch::new(1);
        pool.dispatch(0, job_on(&BODY, 1, &warm));
        warm.wait();
        // Simulate the teardown race: shutdown flag set while a dispatch is
        // still issued (previously this aborted with "pool worker hung up").
        pool.shutting_down.store(true, Ordering::SeqCst);
        let latch = Latch::new(1);
        pool.dispatch(0, job_on(&BODY, 1, &latch));
        latch.wait(); // drained: the latch was counted down, no hang
        assert_eq!(latch.pending(), 0);
        pool.shutting_down.store(false, Ordering::SeqCst); // allow Drop to join
    }
}
