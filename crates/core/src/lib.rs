//! # ppar-core — pluggable parallelisation
//!
//! Rust reproduction of the programming model from *Checkpoint and Run-Time
//! Adaptation with Pluggable Parallelisation* (Medeiros & Sobral, ICPP 2011).
//!
//! The central idea: the **base program** is written once, sequentially,
//! against a [`ctx::Ctx`] handle whose constructs (methods, parallel regions,
//! work-shared loops, execution points, allocations) are *join points*. A
//! separate **plan** ([`plan::Plan`], built with the [`plan!`] macro or the
//! builder API) attaches pluggable behaviour to those join points:
//!
//! * shared-memory parallelisation (parallel methods, `for` work sharing,
//!   synchronized/single/master, barriers, thread-local fields) — realised by
//!   [`runtime::TeamEngine`];
//! * distributed-memory parallelisation (object aggregates, Replicated /
//!   Partitioned / Local fields, scatter/gather/broadcast/reduce, halo
//!   updates) — realised by the `ppar-dsm` engine;
//! * application-level checkpointing (safe data, safe points, ignorable
//!   methods, replay-based restart) — realised by `ppar-ckpt`;
//! * run-time adaptation (expansion/contraction of the parallelism structure
//!   at safe points) — coordinated by `ppar-adapt`.
//!
//! With an **empty plan** every construct is an identity and the base code is
//! a plain sequential Rust program — the paper's "unplugged" deployment. The
//! [`ctx::SeqEngine`] in this crate anchors those reference semantics.
//!
//! ## Example: the paper's Fig. 1 (JGF Series), base code + plan
//!
//! ```
//! use ppar_core::prelude::*;
//!
//! // Base code: sequential, no parallelism anywhere.
//! fn series(ctx: &Ctx, n: usize) -> f64 {
//!     let test_array = ctx.alloc_grid("TestArray", 2, n, 0.0f64);
//!     ctx.call("Do", |ctx| {
//!         ctx.each("coeff_loop", 1..n, |_, i| {
//!             test_array.set(0, i, (i as f64).sin());   // stand-in integrand
//!             test_array.set(1, i, (i as f64).cos());
//!         });
//!     });
//!     test_array.row(0).iter().sum::<f64>() + test_array.row(1).iter().sum::<f64>()
//! }
//!
//! // Unplugged deployment: strict sequential execution.
//! let result = run_sequential(std::sync::Arc::new(Plan::new()), None, None, |ctx| {
//!     series(ctx, 100)
//! });
//! assert!(result.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ctx;
pub mod error;
#[macro_use]
pub mod macros;
pub mod mode;
pub mod partition;
pub mod plan;
pub mod replay;
pub mod runtime;
pub mod schedule;
pub mod shared;
pub mod state;
pub mod sync;

pub use ctx::{
    run_on, run_sequential, AdaptHook, CkptHook, Ctx, Engine, PointDirective, RunShared, SeqEngine,
};
pub use error::{PparError, Result};
pub use mode::ExecMode;
pub use plan::{DistCkptStrategy, Plan, Plug, PointSet, ReduceOp, UpdateAction};

/// Everything the base code and plan modules typically need.
pub mod prelude {
    pub use crate::ctx::{run_sequential, Ctx, RunShared, SeqEngine};
    pub use crate::error::{PparError, Result};
    pub use crate::mode::ExecMode;
    pub use crate::partition::{FieldDist, Partition};
    pub use crate::plan::{DistCkptStrategy, Plan, Plug, PointSet, ReduceOp, UpdateAction};
    pub use crate::schedule::Schedule;
    pub use crate::shared::{GridF64, SharedGrid, SharedVec, TeamLocal, VecF64};
    pub use crate::state::{DistCell, Registry, Scalar, StateCell, ValueCell};
}
