//! # ppar-suite — umbrella crate
//!
//! Re-exports the whole pluggable-parallelisation family so the runnable
//! examples under `examples/` and the cross-crate integration tests under
//! `tests/` can use one dependency. Library users should depend on the
//! individual crates instead.

pub use ppar_adapt as adapt;
pub use ppar_ckpt as ckpt;
pub use ppar_core as core;
/// The shared-memory engine (`run_smp`, `TeamEngine`, `TeamBarrier`) is part
/// of the core team runtime.
pub use ppar_core::runtime as smp;
pub use ppar_dsm as dsm;
pub use ppar_evo as evo;
pub use ppar_jgf as jgf;
pub use ppar_md as md;
pub use ppar_net as net;
pub use ppar_smc as smc;
pub use ppar_task as task;
