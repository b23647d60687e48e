//! # ppar-task — work-stealing task-DAG engine with quiescence checkpoints
//!
//! A task-parallel execution layer for the pluggable-parallelisation
//! runtime family: programs overdecompose their work into a [`TaskGraph`]
//! of migratable chunk tasks, a [`GraphRun`] schedules it over the shared
//! team runtime with per-worker lock-free Chase–Lev deques
//! ([`StealDeque`]), and the task engine — the team engine checking
//! [`assert_quiescent`] at every safe point, see [`engine`] — guarantees
//! that every safe point the base code announces is only crossed at
//! *quiescence* — all deques drained, no task outstanding — so the
//! checkpoint machinery snapshots a stable [`TaskFrontier`].
//!
//! The frontier (completion bitmap, per-chunk cursors, per-task reduction
//! partials) is an ordinary [`ppar_core::state::StateCell`]: registering it
//! as announced state makes in-flight graph progress ride every existing
//! checkpoint path unchanged — full snapshots, dirty-delta snapshots,
//! content-addressed dedup, crash-recovery replay, live reshape and
//! hand-off. A restored run resumes mid-graph: done tasks keep their
//! restored partials, not-done tasks re-enter the deques.
//!
//! Determinism rule: reduction partials fold in **task-id order**, never in
//! completion order, so sequential and stolen schedules of any width
//! produce bitwise-identical results (proven on the parallel Sequential
//! Monte Carlo workload in `ppar-smc`).
//!
//! ```
//! use ppar_task::{GraphRun, Policy, TaskGraph, run_tasks};
//! use std::sync::Arc;
//! use ppar_core::sync::{AtomicU64, Ordering};
//!
//! let plan = {
//!     let mut p = ppar_core::plan::Plan::new();
//!     p.add(ppar_core::plan::Plug::ParallelMethod { method: "work".into() });
//!     Arc::new(p)
//! };
//! let run = GraphRun::new(TaskGraph::chunked(1000, 32), Policy::Steal);
//! let out = Arc::new(AtomicU64::new(0));
//! let o = out.clone();
//! run_tasks(plan, 4, None, None, move |ctx| {
//!     ctx.region("work", |ctx| {
//!         let v = run.run(ctx, 1, &|_, t, i| (t * i) as f64);
//!         o.store(v.to_bits(), Ordering::Relaxed);
//!     });
//! });
//! assert!(f64::from_bits(out.load(Ordering::Relaxed)) > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod deque;
pub mod engine;
pub mod frontier;
pub mod graph;
pub mod run;

pub use deque::{Steal, StealDeque};
pub use engine::run_tasks;
pub use frontier::TaskFrontier;
pub use graph::{TaskGraph, TaskId};
pub use run::{assert_quiescent, GraphRun, Policy};
