//! The work-stealing graph scheduler.
//!
//! A [`GraphRun`] binds one static [`TaskGraph`] to one serializable
//! [`TaskFrontier`] plus the transient scheduling state (per-worker
//! [`StealDeque`] lanes, live dependency counters, the remaining-task
//! counter). [`GraphRun::run`] is a *collective* operation: every worker of
//! the current team calls it at the same program position (SPMD, the same
//! discipline as the work-sharing constructs) and every worker returns the
//! same task-id-ordered reduction of the per-task partials.
//!
//! ## Schedule-independence
//!
//! Work moves between workers freely (thieves take the oldest chunk of a
//! victim's deque), but *results* never depend on who ran what when: each
//! task folds its own items sequentially into a private partial, partials
//! land in frontier slots indexed by task id, and the final reduction walks
//! ids `0..n` in order. Sequential, 2-worker and 8-worker stolen schedules
//! are therefore bitwise identical.
//!
//! ## Resume-from-frontier
//!
//! `run` derives *all* scheduling state from the frontier it is handed:
//! dependency counters count only not-done parents, the remaining counter
//! counts only not-done tasks, and seeding skips done tasks. A frontier
//! restored from a checkpoint therefore resumes a half-executed graph
//! without re-running completed tasks — their restored partials flow
//! straight into the final fold.
//!
//! ## Quiescence contract
//!
//! Task bodies must not cross safe points ([`Ctx::point`]) or announce
//! nested work-sharing: safe points belong *between* graph runs, where the
//! frontier is stable. Construction registers every run in a crate-global
//! table; the task engine's quiescence hook ([`assert_quiescent`]) fires at
//! each safe-point crossing and panics if any run is still mid-flight or
//! holds undrained deques.

use std::sync::{Arc, Weak};

use ppar_core::ctx::Ctx;
use ppar_core::runtime::CachePadded;
use ppar_core::sync::{spin_loop, yield_now, AtomicBool, AtomicU32, AtomicUsize, Mutex, Ordering};

use crate::deque::{Steal, StealDeque};
use crate::frontier::TaskFrontier;
use crate::graph::{TaskGraph, TaskId};

/// How [`GraphRun::run`] distributes tasks over the team.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Work stealing: workers seed their block of task ids, then idle
    /// workers steal the oldest chunks from victims' deques.
    #[default]
    Steal,
    /// Static block partition, no stealing: the OpenMP-style baseline the
    /// benchmarks compare against. Dependency-released tasks still run on
    /// whichever worker released them.
    StaticBlock,
}

/// Crate-global table of live runs, inspected by the engine's quiescence
/// hook at every safe-point crossing.
static LIVE_RUNS: Mutex<Vec<Weak<GraphRun>>> = Mutex::new(Vec::new());

/// One executable binding of graph + frontier + scheduler lanes. See the
/// [module docs](self).
pub struct GraphRun {
    graph: TaskGraph,
    frontier: Arc<TaskFrontier>,
    policy: Policy,
    /// Live not-done-parent counters, rebuilt from the frontier each run.
    deps: Vec<AtomicU32>,
    /// Not-done tasks still to execute this run; the termination condition
    /// every worker polls, so it gets its own cache line.
    remaining: CachePadded<AtomicUsize>,
    /// One deque per worker, grown on demand up to the team size. Workers
    /// snapshot the vector once per run (after the prepare barrier); the
    /// lock is never taken on the execution hot path.
    lanes: Mutex<Vec<Arc<StealDeque>>>,
    /// True between prepare and the final fold of a run.
    in_flight: AtomicBool,
}

impl GraphRun {
    /// Bind `graph` to a fresh frontier under `policy` and register the run
    /// for quiescence checking.
    pub fn new(graph: TaskGraph, policy: Policy) -> Arc<GraphRun> {
        let n = graph.len();
        let run = Arc::new(GraphRun {
            frontier: Arc::new(TaskFrontier::new(n)),
            deps: (0..n).map(|_| AtomicU32::new(0)).collect(),
            remaining: CachePadded::new(AtomicUsize::new(0)),
            lanes: Mutex::new(Vec::new()),
            in_flight: AtomicBool::new(false),
            graph,
            policy,
        });
        let mut live = LIVE_RUNS.lock();
        live.retain(|w| w.strong_count() > 0);
        live.push(Arc::downgrade(&run));
        run
    }

    /// The static graph this run executes.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The serializable frontier — register it as announced state
    /// (`ctx.register_state("task_frontier", run.frontier())`) to make
    /// in-flight graph progress part of every checkpoint.
    pub fn frontier(&self) -> Arc<TaskFrontier> {
        self.frontier.clone()
    }

    /// The scheduling policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Collectively execute (or resume) the graph for `epoch`.
    ///
    /// Every team worker must call this at the same program position. For
    /// each not-done task `t`, `body(ctx, t, i)` runs once per item `i` of
    /// the task's range (in order) on whichever worker executes `t`; the
    /// returned values fold into the task's partial. Returns the task-id
    /// ordered sum of all partials — identical, bitwise, on every worker
    /// and under every schedule.
    ///
    /// A fresh epoch resets the frontier; re-running the frontier's current
    /// epoch (the checkpoint-restore path) executes only not-done tasks and
    /// keeps restored partials.
    pub fn run(
        &self,
        ctx: &Ctx,
        epoch: u64,
        body: &(dyn Fn(&Ctx, TaskId, usize) -> f64 + Sync),
    ) -> f64 {
        let k = ctx.num_workers().max(1);
        let w = ctx.worker();
        ctx.barrier();
        if w == 0 {
            self.prepare(epoch, k);
        }
        ctx.barrier();
        let lanes: Vec<Arc<StealDeque>> = self.lanes.lock().clone();
        let own = &lanes[w];

        // Seed: each worker loads its block of the id space with the tasks
        // that are ready (all parents done) and not already done.
        let n = self.graph.len();
        for t in (w * n / k)..((w + 1) * n / k) {
            if !self.frontier.is_done(t) && self.deps[t].load(Ordering::Acquire) == 0 {
                own.push(t).expect("deque ring sized for the whole graph");
            }
        }
        // No execution before every worker finishes seeding: an exec on a
        // fast worker decrements deps and pushes newly-ready children, so a
        // slow seeder could observe deps[t] == 0 for a task the exec
        // already pushed and seed it a second time — double execution and a
        // remaining underflow. Behind this barrier the deps counters seeded
        // from are exactly prepare()'s values.
        ctx.barrier();

        while self.remaining.load(Ordering::Acquire) > 0 {
            if let Some(t) = own.pop() {
                self.exec(ctx, t, own, body);
                continue;
            }
            let mut progressed = false;
            if self.policy == Policy::Steal {
                for i in 1..lanes.len() {
                    match lanes[(w + i) % lanes.len()].steal() {
                        Steal::Taken(t) => {
                            self.exec(ctx, t, own, body);
                            progressed = true;
                            break;
                        }
                        // A lost race means somebody has work: go around.
                        Steal::Retry => {
                            progressed = true;
                            break;
                        }
                        Steal::Empty => {}
                    }
                }
            }
            if !progressed {
                // Nothing stealable right now (or static policy): the last
                // tasks are running elsewhere, or their children have not
                // been released yet.
                spin_loop();
                yield_now();
            }
        }

        // All partials are published before any worker folds.
        ctx.barrier();
        let out = self.frontier.fold_partials(0.0, |a, b| a + b);
        self.in_flight.store(false, Ordering::Release);
        out
    }

    /// Worker 0, between barriers: derive scheduling state from the
    /// frontier and make sure a lane exists for every team member.
    fn prepare(&self, epoch: u64, k: usize) {
        if self.frontier.epoch() != epoch {
            self.frontier.begin_epoch(epoch);
        }
        let n = self.graph.len();
        for t in 0..n {
            self.deps[t].store(self.graph.parents(t), Ordering::Relaxed);
        }
        let mut remaining = 0;
        for t in 0..n {
            if self.frontier.is_done(t) {
                for &c in self.graph.children(t) {
                    self.deps[c].fetch_sub(1, Ordering::Relaxed);
                }
            } else {
                remaining += 1;
            }
        }
        self.in_flight.store(true, Ordering::Release);
        let mut lanes = self.lanes.lock();
        // Every live task occupies at most one slot across all deques, but
        // children funnel to their releasing worker, so size each ring for
        // the whole graph.
        let cap = n.max(1);
        while lanes.len() < k {
            lanes.push(Arc::new(StealDeque::new(cap)));
        }
        self.remaining.store(remaining, Ordering::Release);
    }

    /// Execute task `t`: fold its items, publish partial + done bit,
    /// release children (newly-ready ones join this worker's deque).
    fn exec(
        &self,
        ctx: &Ctx,
        t: TaskId,
        own: &StealDeque,
        body: &(dyn Fn(&Ctx, TaskId, usize) -> f64 + Sync),
    ) {
        let range = self.graph.range(t);
        let mut acc = 0.0;
        for i in range.clone() {
            acc += body(ctx, t, i);
        }
        // Resume granularity is whole tasks (cursors are only observed at
        // quiescence, where they sit at range boundaries), so one Release
        // store after the item loop carries the same information as a store
        // per item without the shared-cache traffic on the frontier.
        self.frontier.set_cursor(t, range.end as u64);
        self.frontier.set_partial(t, acc);
        self.frontier.mark_done(t);
        for &c in self.graph.children(t) {
            if self.deps[c].fetch_sub(1, Ordering::AcqRel) == 1 {
                own.push(c).expect("deque ring sized for the whole graph");
            }
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
    }

    /// Is this run mid-execution with tasks outstanding?
    fn unstable(&self) -> Option<String> {
        if self.remaining.load(Ordering::Acquire) > 0 {
            return Some(format!(
                "{} of {} tasks still outstanding",
                self.remaining.load(Ordering::Acquire),
                self.graph.len()
            ));
        }
        // Covers the window where prepare() is mutating the frontier and
        // deps counters but has not published `remaining` yet, and the tail
        // between the last exec and the fold.
        if self.in_flight.load(Ordering::Acquire) {
            return Some("a run is between prepare and its final fold".into());
        }
        let lanes = self.lanes.lock();
        for (i, lane) in lanes.iter().enumerate() {
            if !lane.is_empty() {
                return Some(format!("worker {i}'s deque is not drained"));
            }
        }
        None
    }
}

/// Verify every live [`GraphRun`] is quiescent (no outstanding tasks, all
/// deques drained). The task engine calls this from its safe-point
/// quiescence hook; a failure means a task body crossed a safe point,
/// which would checkpoint a torn frontier.
///
/// # Panics
/// If any live run is mid-flight.
pub fn assert_quiescent(point: &str) {
    let mut live = LIVE_RUNS.lock();
    live.retain(|w| w.strong_count() > 0);
    for weak in live.iter() {
        if let Some(run) = weak.upgrade() {
            if let Some(why) = run.unstable() {
                panic!(
                    "safe point {point:?} crossed inside a task graph run ({why}); \
                     safe points must sit between graph runs, where the task \
                     frontier is stable"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppar_core::ctx::run_sequential;
    use ppar_core::plan::Plan;

    fn seq_sum(run: &Arc<GraphRun>, epoch: u64) -> f64 {
        let run = run.clone();
        run_sequential(Arc::new(Plan::new()), None, None, move |ctx| {
            run.run(ctx, epoch, &|_, t, i| (t as f64) + (i as f64) * 0.5)
        })
    }

    #[test]
    fn sequential_run_folds_in_id_order() {
        let run = GraphRun::new(TaskGraph::chunked(10, 3), Policy::Steal);
        let got = seq_sum(&run, 1);
        let want: f64 = {
            // task ids: 0..4 over chunks [0..3),[3..6),[6..9),[9..10)
            let mut acc = 0.0;
            for (t, r) in [(0, 0..3), (1, 3..6), (2, 6..9), (3, 9..10)] {
                let mut p = 0.0;
                for i in r {
                    p += (t as f64) + (i as f64) * 0.5;
                }
                acc += p;
            }
            acc
        };
        assert_eq!(got, want);
        assert_eq!(run.frontier().done_count(), 4);
    }

    #[test]
    fn rerun_same_epoch_is_a_no_op_fold() {
        let run = GraphRun::new(TaskGraph::chunked(8, 2), Policy::Steal);
        let first = seq_sum(&run, 7);
        // Same epoch again: nothing re-executes (done bits hold), fold
        // reproduces the result bitwise from the stored partials.
        let again = seq_sum(&run, 7);
        assert_eq!(first.to_bits(), again.to_bits());
        // A new epoch resets and recomputes.
        let fresh = seq_sum(&run, 8);
        assert_eq!(first.to_bits(), fresh.to_bits());
    }

    #[test]
    fn dependencies_release_children() {
        let mut g = TaskGraph::new();
        let a = g.add(0..2);
        let b = g.add(2..4);
        let c = g.add(4..6);
        g.add_dep(a, c);
        g.add_dep(b, c);
        let run = GraphRun::new(g, Policy::Steal);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o2 = order.clone();
        let r2 = run.clone();
        run_sequential(Arc::new(Plan::new()), None, None, move |ctx| {
            r2.run(ctx, 1, &|_, t, _| {
                o2.lock().push(t);
                1.0
            });
        });
        let order = order.lock();
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(c) > pos(a) && pos(c) > pos(b));
        assert_eq!(run.frontier().done_count(), 3);
    }

    /// Asked of this run alone: the process-wide check would also see the
    /// graphs this binary's other tests run in parallel.
    #[test]
    fn quiescent_when_idle() {
        let run = GraphRun::new(TaskGraph::chunked(4, 1), Policy::Steal);
        assert_eq!(run.unstable(), None); // nothing started: remaining == 0
    }
}
