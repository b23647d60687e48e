//! Every call the ledger makes into a workspace crate goes through this
//! file, so a change to a public API of `ppar-*` is answered by editing one
//! place. Nothing here decides what to measure: the workloads do. What
//! comes out of this file is plain data (seconds, counts, checksums), never
//! a workspace type.
//!
//! Entry points are the ones ROADMAP does not plan to remove: `launch`,
//! `launch_live`, `Plan`/`Plug`, `CheckpointStore::{new_flat, new_cas_with,
//! put_master, put_master_delta, write_merged_record}`, `MemTransport`,
//! `NetTransport::{serve, client}`, `TcpFabric::connect`, `GraphRun`.
//! Neither `PPAR_*` variable is read or set here; the store layout is chosen
//! by creating the directory with the layout wanted, which a later open
//! detects.

use std::cell::Cell;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppar_adapt::{launch, launch_live, AdaptationController, AppStatus, Deploy, ResourceTimeline};
use ppar_ckpt::store::{DeltaSource, FieldSource, SnapshotMeta, SnapshotWriter};
use ppar_ckpt::transport::CkptTransport;
use ppar_ckpt::{CasConfig, CheckpointStore, ChunkDigest, CkptStats, DeltaMeta, MemTransport};
use ppar_core::ctx::Ctx;
use ppar_core::mode::ExecMode;
use ppar_core::partition::{FieldDist, Partition};
use ppar_core::plan::{Plan, Plug, PointSet, UpdateAction};
use ppar_core::schedule::Schedule;
use ppar_core::shared::{SharedGrid, SharedVec, DIRTY_CHUNK_BYTES};
use ppar_core::state::StateCell;
use ppar_dsm::SpmdConfig;
use ppar_jgf::sor::baseline::{sor_dist, sor_threads};
use ppar_jgf::sor::pluggable::{plan_ckpt, plan_dist, plan_seq, plan_smp, sor_pluggable};
use ppar_jgf::sor::{relax_row, sor_seq, SorParams};
use ppar_net::{free_loopback_addr, Fabric, NetConfig, NetTransport, TcpFabric};
use ppar_smc::{smc_pluggable, SmcConfig};
use ppar_task::{GraphRun, Policy, TaskGraph};

type Res<T> = Result<T, String>;

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------------------
// deployments
// ---------------------------------------------------------------------------

/// The deployments the ledger uses: never more than two lines of execution,
/// because the host has two cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eng {
    Seq,
    Smp2,
    /// One thread, may grow to two in place (§IV.B expansion).
    Smp1Grow,
    Dist2,
    Task2,
}

impl Eng {
    pub fn tag(self) -> &'static str {
        match self {
            Eng::Seq => "seq",
            Eng::Smp2 => "smp2",
            Eng::Smp1Grow => "smp1",
            Eng::Dist2 => "dist2",
            Eng::Task2 => "task2",
        }
    }

    fn deploy(self) -> Deploy {
        match self {
            Eng::Seq => Deploy::Seq,
            Eng::Smp2 => Deploy::Smp {
                threads: 2,
                max_threads: 2,
            },
            Eng::Smp1Grow => Deploy::Smp {
                threads: 1,
                max_threads: 2,
            },
            Eng::Dist2 => Deploy::Dist(SpmdConfig::instant(2)),
            Eng::Task2 => Deploy::Task {
                workers: 2,
                max_workers: 2,
            },
        }
    }
}

/// What the checkpoint module counted during one launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CkptCounters {
    pub snapshots: u64,
    pub bytes_written: u64,
    pub save_s: f64,
    pub load_s: f64,
    pub replay_s: f64,
    pub replayed_points: u64,
    pub resumed_at_point: u64,
}

impl From<CkptStats> for CkptCounters {
    fn from(s: CkptStats) -> CkptCounters {
        CkptCounters {
            snapshots: s.snapshots_taken,
            bytes_written: s.bytes_written,
            save_s: secs(s.save_time),
            load_s: secs(s.load_time),
            replay_s: secs(s.replay_time),
            replayed_points: s.replayed_points,
            resumed_at_point: s.resumed_at_point,
        }
    }
}

/// Messages and bytes a launch put on the (simulated) fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCount {
    pub msgs: u64,
    pub bytes: u64,
}

// ---------------------------------------------------------------------------
// sparse_relax: the benchmark's own pluggable base code
// ---------------------------------------------------------------------------

/// Bytes per dirty-tracking chunk, which is also the CAS chunk size.
pub const CHUNK_BYTES: usize = DIRTY_CHUNK_BYTES;
/// `f64` cells per chunk.
pub const CHUNK_CELLS: usize = CHUNK_BYTES / 8;

/// One `sparse_relax` run: a vector of `chunks` chunks, `steps` steps, each
/// rewriting one contiguous window of `window_chunks` chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxCfg {
    pub chunks: usize,
    pub steps: usize,
    pub window_chunks: usize,
    pub seed: u64,
    /// Leave the loop right after this step's safe point (1-based), as a
    /// failed resource would.
    pub fail_after: Option<usize>,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl RelaxCfg {
    pub fn cells(&self) -> usize {
        self.chunks * CHUNK_CELLS
    }

    pub fn state_bytes(&self) -> usize {
        self.chunks * CHUNK_BYTES
    }

    /// Cells rewritten at `step`. The windows tile the vector; the seed
    /// picks where the rotation starts and its stride, so every window is
    /// visited before one repeats and two seeds visit them in another order.
    pub fn window(&self, step: usize) -> Range<usize> {
        let width = self.window_chunks.clamp(1, self.chunks);
        let positions = self.chunks / width;
        let offset = (self.seed % positions as u64) as usize;
        let mut stride = 1 + ((self.seed >> 20) % positions as u64) as usize;
        while gcd(stride, positions) != 1 {
            stride += 1;
        }
        let position = (offset + step * stride) % positions;
        let start = position * width * CHUNK_CELLS;
        start..start + width * CHUNK_CELLS
    }
}

/// A value in `[0, 1)` from `(cell, step, seed)`: fresh content for every
/// rewritten cell, so no two chunks are equal by accident and the CAS never
/// dedups what the workload meant to be new.
fn cell_noise(i: usize, step: u64, seed: u64) -> f64 {
    let mut x = seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ step.rotate_left(48);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn initial_cell(i: usize, seed: u64) -> f64 {
    cell_noise(i, u64::MAX, seed)
}

/// The relaxation: half the old value plus fresh noise. It reads only the
/// cell it writes, so any partition of a window gives the same bits.
fn relaxed(old: f64, i: usize, step: usize, seed: u64) -> f64 {
    0.5 * old + cell_noise(i, step as u64, seed)
}

fn fold_checksum(cells: &[f64]) -> u64 {
    cells.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h.rotate_left(5) ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The master's stay inside one `ctx.point("step_end")`.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub step: usize,
    pub enter: Instant,
    pub exit: Instant,
}

impl Stamp {
    pub fn stall_s(&self) -> f64 {
        secs(self.exit.saturating_duration_since(self.enter))
    }
}

/// `sparse_relax`, written once against [`Ctx`]: allocation `S`, method
/// `init`, region `run`, tracked loop `steps`, method `relax` around the
/// work-shared loop `cells`, safe point `step_end`, final point `collect`.
/// The stamps are pushed into a vector the caller owns, so they survive the
/// relaunch of this closure that a live reshape causes.
fn sparse_relax(ctx: &Ctx, cfg: &RelaxCfg, stamps: &Mutex<Vec<Stamp>>) -> u64 {
    let s = ctx.alloc_vec("S", cfg.cells(), 0.0f64);
    let seed = cfg.seed;
    ctx.call("init", |_| s.copy_in_from_fn(|i| initial_cell(i, seed)));
    ctx.region("run", |ctx| {
        ctx.iter_loop("steps", 0..cfg.steps, |ctx, step| {
            let window = cfg.window(step);
            ctx.call("relax", |ctx| {
                ctx.each("cells", window.clone(), |_, i| {
                    s.set(i, relaxed(s.get(i), i, step, seed));
                });
            });
            let enter = Instant::now();
            ctx.point("step_end");
            if ctx.is_master() && ctx.is_root() {
                let exit = Instant::now();
                stamps
                    .lock()
                    .expect("no stamp holder panics")
                    .push(Stamp { step, enter, exit });
            }
            Some(step + 1) != cfg.fail_after
        });
    });
    if cfg.fail_after.is_none() {
        ctx.point("collect");
    }
    fold_checksum(s.as_slice())
}

/// The same computation as a plain loop over a `Vec`: the reference every
/// pluggable `sparse_relax` result is compared with, bit for bit.
pub fn sparse_relax_reference(cfg: &RelaxCfg) -> u64 {
    let mut s: Vec<f64> = (0..cfg.cells())
        .map(|i| initial_cell(i, cfg.seed))
        .collect();
    for step in 0..cfg.fail_after.unwrap_or(cfg.steps).min(cfg.steps) {
        for i in cfg.window(step) {
            s[i] = relaxed(s[i], i, step, cfg.seed);
        }
    }
    fold_checksum(&s)
}

fn relax_plan_smp() -> Plan {
    Plan::new()
        .plug(Plug::ParallelMethod {
            method: "run".into(),
        })
        .plug(Plug::For {
            loop_name: "cells".into(),
            schedule: Schedule::Block,
        })
}

fn relax_plan_dist() -> Plan {
    Plan::new()
        .plug(Plug::Replicate {
            class: "SparseRelax".into(),
        })
        .plug(Plug::Field {
            field: "S".into(),
            dist: FieldDist::Partitioned(Partition::Block),
        })
        .plug(Plug::DistFor {
            loop_name: "cells".into(),
            field: "S".into(),
        })
        .plug(Plug::UpdateAt {
            point: "collect".into(),
            field: "S".into(),
            action: UpdateAction::Gather,
        })
}

/// How `sparse_relax` checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Saves {
    /// No checkpoint module at all.
    Unplugged,
    /// Safe points are counted, nothing is saved (`every = 0`).
    CountOnly,
    /// A full snapshot at every `every`-th safe point.
    Full { every: usize },
    /// Dirty-chunk deltas, a full base after `full_every` of them.
    Delta { every: usize, full_every: usize },
}

fn relax_plan_ckpt(saves: Saves) -> Plan {
    let (every, full_every) = match saves {
        Saves::Unplugged => return Plan::new(),
        Saves::CountOnly => (0, None),
        Saves::Full { every } => (every, None),
        Saves::Delta { every, full_every } => (every, Some(full_every)),
    };
    let mut plan = Plan::new()
        .plug(Plug::SafeData { field: "S".into() })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["step_end".into()]),
            every,
        })
        .plug(Plug::Ignorable {
            method: "relax".into(),
        })
        .plug(Plug::Ignorable {
            method: "init".into(),
        });
    if let Some(full_every) = full_every {
        plan.add(Plug::IncrementalCkpt { full_every });
    }
    plan
}

fn relax_plan(eng: Eng, saves: Saves) -> Plan {
    let base = match eng {
        Eng::Seq => Plan::new(),
        Eng::Smp2 | Eng::Smp1Grow | Eng::Task2 => relax_plan_smp(),
        Eng::Dist2 => relax_plan_dist(),
    };
    base.merge(relax_plan_ckpt(saves))
}

#[derive(Debug, Clone)]
pub struct RelaxOutcome {
    pub wall_s: f64,
    pub checksum: u64,
    pub completed: bool,
    /// Did the launch resume from a store a stopped run left?
    pub replayed: bool,
    pub stamps: Vec<Stamp>,
    pub ckpt: Option<CkptCounters>,
}

fn take_stamps(stamps: Mutex<Vec<Stamp>>) -> Vec<Stamp> {
    stamps.into_inner().expect("no stamp holder panics")
}

/// One `launch` of `sparse_relax`. `dir` plugs the checkpoint module; the
/// layout is the one the directory was created with.
pub fn run_relax(eng: Eng, saves: Saves, dir: Option<&Path>, cfg: &RelaxCfg) -> Res<RelaxOutcome> {
    let stamps = Mutex::new(Vec::new());
    let status = if cfg.fail_after.is_some() {
        AppStatus::Crashed
    } else {
        AppStatus::Completed
    };
    let start = Instant::now();
    let out = launch(&eng.deploy(), relax_plan(eng, saves), dir, None, |ctx| {
        (status, sparse_relax(ctx, cfg, &stamps))
    })
    .map_err(|e| err("launch sparse_relax", e))?;
    let wall_s = secs(start.elapsed());
    Ok(RelaxOutcome {
        wall_s,
        checksum: out.results[0].1,
        completed: out.completed(),
        replayed: out.replayed,
        ckpt: out.stats.map(CkptCounters::from),
        stamps: take_stamps(stamps),
    })
}

#[derive(Debug, Clone)]
pub struct LiveOutcome {
    pub wall_s: f64,
    pub checksum: u64,
    pub completed: bool,
    pub stamps: Vec<Stamp>,
    /// Launch rounds: 2 when the reshape escalated to a hand-off.
    pub launches: usize,
    /// Reshapes applied by hand-off and relaunch.
    pub escalated: usize,
    /// Reshapes the controller saw applied, in place or not.
    pub applied: usize,
    /// Counters of the final round.
    pub ckpt: Option<CkptCounters>,
}

/// One `launch_live` session of `sparse_relax` that starts under `from` and
/// is told at safe-point crossing `at` to continue under `to`. No
/// checkpoint directory: the session never touches the disk.
pub fn run_relax_live(from: Eng, to: Eng, at: u64, cfg: &RelaxCfg) -> Res<LiveOutcome> {
    let target = match to {
        Eng::Seq => ExecMode::seq(),
        Eng::Smp2 | Eng::Task2 => ExecMode::smp(2),
        Eng::Smp1Grow => ExecMode::smp(1),
        Eng::Dist2 => ExecMode::dist(2),
    };
    let controller = AdaptationController::with_timeline(ResourceTimeline::new().at(at, target));
    // One plan for the whole session: plugs of a mode the current engine
    // lacks are inert.
    let plan = relax_plan_dist()
        .merge(relax_plan_smp())
        .merge(relax_plan_ckpt(Saves::CountOnly));
    let stamps = Mutex::new(Vec::new());
    let start = Instant::now();
    let out = launch_live(&from.deploy(), plan, None, controller.clone(), |ctx| {
        (AppStatus::Completed, sparse_relax(ctx, cfg, &stamps))
    })
    .map_err(|e| err("launch_live sparse_relax", e))?;
    Ok(LiveOutcome {
        wall_s: secs(start.elapsed()),
        checksum: out.results[0].1,
        completed: out.completed(),
        launches: out.launches,
        escalated: out.reshapes.len(),
        applied: controller.applied().len(),
        ckpt: out.stats.map(CkptCounters::from),
        stamps: take_stamps(stamps),
    })
}

// ---------------------------------------------------------------------------
// JGF SOR, unmodified
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SorSpec {
    pub n: usize,
    pub iterations: usize,
    pub seed: u64,
}

impl SorSpec {
    fn params(&self, fail_after: Option<usize>) -> SorParams {
        SorParams {
            seed: self.seed,
            fail_after,
            ..SorParams::new(self.n, self.iterations)
        }
    }

    /// Cell updates of one full run: every interior cell once per iteration.
    pub fn cell_updates(&self) -> u64 {
        let interior = self.n.saturating_sub(2) as u64;
        interior * interior * self.iterations as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SorArm {
    HandSeq,
    HandThreads2,
    HandDist2,
    PlugSeq,
    PlugSmp2,
    PlugDist2,
}

impl SorArm {
    pub fn tag(self) -> &'static str {
        match self {
            SorArm::HandSeq => "hand_seq",
            SorArm::HandThreads2 => "hand_threads2",
            SorArm::HandDist2 => "hand_dist2",
            SorArm::PlugSeq => "plug_seq",
            SorArm::PlugSmp2 => "plug_smp2",
            SorArm::PlugDist2 => "plug_dist2",
        }
    }

    /// Does the arm need a second core to mean anything?
    pub fn parallel(self) -> bool {
        !matches!(self, SorArm::HandSeq | SorArm::PlugSeq)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct SorOutcome {
    pub wall_s: f64,
    /// Bits of the JGF validation checksum.
    pub checksum: u64,
    pub traffic: Option<TrafficCount>,
}

/// One whole SOR run, hand-written or pluggable, with no checkpoint plugs.
pub fn run_sor(arm: SorArm, spec: &SorSpec) -> Res<SorOutcome> {
    let p = spec.params(None);
    let start = Instant::now();
    let (checksum, traffic) = match arm {
        SorArm::HandSeq => (sor_seq(&p).checksum, None),
        SorArm::HandThreads2 => (sor_threads(&p, 2).checksum, None),
        SorArm::HandDist2 => (sor_dist(&p, &SpmdConfig::instant(2)).checksum, None),
        SorArm::PlugSeq | SorArm::PlugSmp2 | SorArm::PlugDist2 => {
            let (eng, plan) = match arm {
                SorArm::PlugSeq => (Eng::Seq, plan_seq()),
                SorArm::PlugSmp2 => (Eng::Smp2, plan_smp()),
                _ => (Eng::Dist2, plan_dist()),
            };
            let out = launch(&eng.deploy(), plan, None, None, |ctx| {
                (AppStatus::Completed, sor_pluggable(ctx, &p))
            })
            .map_err(|e| err("launch sor", e))?;
            let traffic = out.traffic.map(|t| TrafficCount {
                msgs: t.msgs(),
                bytes: t.bytes(),
            });
            (out.results[0].1.checksum, traffic)
        }
    };
    Ok(SorOutcome {
        wall_s: secs(start.elapsed()),
        checksum: checksum.to_bits(),
        traffic,
    })
}

#[derive(Debug, Clone)]
pub struct SorCkptOutcome {
    pub wall_s: f64,
    pub checksum: u64,
    pub completed: bool,
    pub replayed: bool,
    pub iterations_done: usize,
    pub ckpt: CkptCounters,
}

/// Pluggable SOR on `smp2` with a full checkpoint every `every` iterations
/// into `dir`. `fail_after` stops the run after that iteration and leaves
/// the run marker, so the next call on the same directory restarts.
pub fn run_sor_ckpt(
    dir: &Path,
    spec: &SorSpec,
    every: usize,
    fail_after: Option<usize>,
) -> Res<SorCkptOutcome> {
    let p = spec.params(fail_after);
    let status = if fail_after.is_some() {
        AppStatus::Crashed
    } else {
        AppStatus::Completed
    };
    let plan = plan_smp().merge(plan_ckpt(every));
    let start = Instant::now();
    let out = launch(&Eng::Smp2.deploy(), plan, Some(dir), None, |ctx| {
        (status, sor_pluggable(ctx, &p))
    })
    .map_err(|e| err("launch sor with checkpoints", e))?;
    let wall_s = secs(start.elapsed());
    let result = &out.results[0].1;
    Ok(SorCkptOutcome {
        wall_s,
        checksum: result.checksum.to_bits(),
        completed: out.completed(),
        replayed: out.replayed,
        iterations_done: result.iterations_done,
        ckpt: out
            .stats
            .clone()
            .map(CkptCounters::from)
            .unwrap_or_default(),
    })
}

/// Checksum bits of the hand-written sequential kernel: the reference of
/// every SOR arm.
pub fn sor_reference_checksum(spec: &SorSpec) -> u64 {
    sor_seq(&spec.params(None)).checksum.to_bits()
}

// ---------------------------------------------------------------------------
// SMC on the task engine, unmodified
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmcSpec {
    pub particles: usize,
    pub steps: usize,
    pub chunk: usize,
    pub work: usize,
    pub seed: u64,
}

impl SmcSpec {
    fn config(&self, policy: Policy) -> SmcConfig {
        let mut c = SmcConfig::new(self.particles, self.steps);
        c.chunk = self.chunk;
        c.work = self.work;
        c.seed = self.seed;
        c.policy = policy;
        c
    }

    pub fn particle_steps(&self) -> u64 {
        (self.particles * self.steps) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmcArm {
    Seq,
    Static2,
    Steal2,
    /// Stealing with a checkpoint at every resampling point.
    StealCkpt2,
}

impl SmcArm {
    pub fn tag(self) -> &'static str {
        match self {
            SmcArm::Seq => "seq",
            SmcArm::Static2 => "task2_static",
            SmcArm::Steal2 => "task2_steal",
            SmcArm::StealCkpt2 => "task2_steal_ckpt",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SmcOutcome {
    pub wall_s: f64,
    /// Particle checksum, log-likelihood bits, steps done: equal on every
    /// schedule or the run is wrong.
    pub result: (u64, u64, usize),
    pub ckpt: Option<CkptCounters>,
}

/// One whole particle-filter run. `dir` is used by the checkpointing arm.
pub fn run_smc(arm: SmcArm, spec: &SmcSpec, dir: Option<&Path>) -> Res<SmcOutcome> {
    let (eng, policy) = match arm {
        SmcArm::Seq => (Eng::Seq, Policy::Steal),
        SmcArm::Static2 => (Eng::Task2, Policy::StaticBlock),
        SmcArm::Steal2 | SmcArm::StealCkpt2 => (Eng::Task2, Policy::Steal),
    };
    let mut plan = match eng {
        Eng::Seq => Plan::new(),
        _ => ppar_smc::plan_task(),
    };
    let dir = match arm {
        SmcArm::StealCkpt2 => {
            plan = plan.merge(ppar_smc::plan_ckpt(1));
            Some(dir.ok_or("the checkpointing SMC arm needs a directory")?)
        }
        _ => None,
    };
    let cfg = spec.config(policy);
    let start = Instant::now();
    let out = launch(&eng.deploy(), plan, dir, None, |ctx| {
        (AppStatus::Completed, smc_pluggable(ctx, &cfg))
    })
    .map_err(|e| err("launch smc", e))?;
    let wall_s = secs(start.elapsed());
    let r = out.results[0].1;
    Ok(SmcOutcome {
        wall_s,
        result: (r.checksum, r.loglik.to_bits(), r.steps_done),
        ckpt: out.stats.map(CkptCounters::from),
    })
}

// ---------------------------------------------------------------------------
// state and stores, driven directly
// ---------------------------------------------------------------------------

/// A `sparse_relax` state outside any launch: the same cells, the same
/// rewrites, so a store or the wire can be driven with exactly the records
/// the application would save.
pub struct State {
    cfg: RelaxCfg,
    cell: SharedVec<f64>,
}

impl State {
    pub fn new(cfg: &RelaxCfg) -> State {
        let cell = SharedVec::new(cfg.cells(), 0.0f64);
        cell.copy_in_from_fn(|i| initial_cell(i, cfg.seed));
        State {
            cfg: cfg.clone(),
            cell,
        }
    }

    /// Rewrite the window of `step`, as the application's `relax` would.
    pub fn rewrite(&self, step: usize) {
        for i in self.cfg.window(step) {
            self.cell
                .set(i, relaxed(self.cell.get(i), i, step, self.cfg.seed));
        }
    }

    /// Rewrite every cell with content no earlier state held.
    pub fn refresh(&self, generation: usize) {
        let seed = self.cfg.seed;
        self.cell
            .copy_in_from_fn(|i| cell_noise(i, (1 << 40) + generation as u64, seed));
    }

    /// Byte ranges written since the last [`State::clear_dirty`].
    pub fn dirty_ranges(&self) -> Vec<Range<usize>> {
        self.cell.dirty_byte_ranges()
    }

    pub fn clear_dirty(&self) {
        self.cell.clear_dirty();
    }

    pub fn checksum(&self) -> u64 {
        fold_checksum(self.cell.as_slice())
    }

    /// Install the field `S` of an encoded record and return the checksum of
    /// what arrived.
    fn install(&self, payload: &[u8]) -> Res<u64> {
        self.cell
            .load_bytes(payload)
            .map_err(|e| err("install state", e))?;
        Ok(self.checksum())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Flat,
    Cas,
}

fn open_store(dir: &Path, layout: Layout, gc_grace: Duration) -> Res<CheckpointStore> {
    match layout {
        Layout::Flat => CheckpointStore::new_flat(dir),
        Layout::Cas => CheckpointStore::new_cas_with(
            dir,
            CasConfig {
                gc_grace,
                ..CasConfig::default()
            },
        ),
    }
    .map_err(|e| err("open store", e))
}

/// Create `dir` in `layout`, so that a launch given the directory uses that
/// layout (a content-addressed directory is detected when reopened).
pub fn precreate_store(dir: &Path, layout: Layout) -> Res<()> {
    open_store(dir, layout, CasConfig::default().gc_grace).map(|_| ())
}

/// What one save cost the store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PutCount {
    /// Record bytes streamed into the store.
    pub record_bytes: u64,
    pub chunks_written: u64,
    pub chunks_deduped: u64,
    /// Chunks the wire hand-shake kept off the wire (client side).
    pub wire_chunks_skipped: u64,
}

fn master_meta(count: u64) -> SnapshotMeta {
    SnapshotMeta {
        mode_tag: "smp2".into(),
        count,
        rank: None,
        nranks: 1,
    }
}

fn put_count(record_bytes: u64, t: &dyn CkptTransport) -> PutCount {
    let s = t.take_put_stats();
    PutCount {
        record_bytes,
        chunks_written: s.chunks_written,
        chunks_deduped: s.chunks_deduped,
        wire_chunks_skipped: s.wire_chunks_skipped,
    }
}

/// A checkpoint directory driven without a launch.
pub struct Store {
    inner: CheckpointStore,
    scratch: Vec<u8>,
}

impl Store {
    /// `gc_now` opens a CAS with no grace period, so [`Store::gc`] sweeps
    /// what the run just orphaned.
    pub fn open(dir: &Path, layout: Layout, gc_now: bool) -> Res<Store> {
        let grace = if gc_now {
            Duration::ZERO
        } else {
            CasConfig::default().gc_grace
        };
        Ok(Store {
            inner: open_store(dir, layout, grace)?,
            scratch: Vec::new(),
        })
    }

    /// Save the whole state as the master record of safe point `count`.
    pub fn put_full(&mut self, state: &State, count: u64) -> Res<PutCount> {
        let fields = [("S", FieldSource::Cell(&state.cell as &dyn StateCell))];
        let written = self
            .inner
            .put_master(&master_meta(count), &fields, &mut self.scratch)
            .map_err(|e| err("put_master", e))?;
        Ok(put_count(written, &self.inner))
    }

    /// Save only `ranges` as delta `seq` on the base saved at `base_count`.
    pub fn put_delta(
        &mut self,
        state: &State,
        ranges: &[Range<usize>],
        count: u64,
        base_count: u64,
        seq: u32,
    ) -> Res<PutCount> {
        let meta = DeltaMeta {
            mode_tag: "smp2".into(),
            count,
            base_count,
            seq,
            rank: None,
            nranks: 1,
        };
        let fields = [(
            "S",
            DeltaSource::DirtyCell {
                cell: &state.cell as &dyn StateCell,
                ranges,
            },
        )];
        let written = self
            .inner
            .put_master_delta(&meta, &fields, &mut self.scratch)
            .map_err(|e| err("put_master_delta", e))?;
        Ok(put_count(written, &self.inner))
    }

    /// Stream the merged master record (base plus chain) into `out`.
    pub fn get(&self, out: &mut Vec<u8>) -> Res<u64> {
        out.clear();
        self.inner
            .write_merged_record(None, out)
            .map_err(|e| err("write_merged_record", e))?
            .ok_or_else(|| "store holds no master record".to_string())
    }

    /// Sweep unreferenced CAS objects: `(objects swept, bytes reclaimed)`.
    pub fn gc(&self) -> Res<(u64, u64)> {
        let cas = self.inner.cas().ok_or("gc on a flat store")?;
        let swept = cas.gc().map_err(|e| err("gc", e))?;
        Ok((swept.objects_swept, swept.bytes_reclaimed))
    }
}

/// Sweep the unreferenced objects of the CAS in `dir` now, whatever their
/// age: `(objects swept, bytes reclaimed)`.
pub fn gc_store(dir: &Path) -> Res<(u64, u64)> {
    Store::open(dir, Layout::Cas, true)?.gc()
}

/// Checksum of the state an encoded master record carries: decode it the
/// way a restart would (CRC checked) and fold field `S`.
pub fn record_state_checksum(record: &[u8], into: &State) -> Res<u64> {
    let snap = ppar_ckpt::Snapshot::decode(record).map_err(|e| err("decode record", e))?;
    let payload = snap.field("S").ok_or("record has no field S")?;
    into.install(payload)
}

/// Stage "encode + CRC" of a save: the golden encoder streaming the state
/// into a sink that discards. Returns the record length.
pub fn encode_discarding(state: &State, count: u64) -> Res<u64> {
    let mut scratch = Vec::new();
    let mut w = SnapshotWriter::new(std::io::sink(), &master_meta(count), 1)
        .map_err(|e| err("snapshot header", e))?;
    w.field_cell("S", &state.cell, &mut scratch)
        .map_err(|e| err("snapshot field", e))?;
    let (written, _) = w.finish().map_err(|e| err("snapshot trailer", e))?;
    Ok(written)
}

/// Stage "digest" of a CAS save: one digest per chunk of the record.
/// Returns the chunks digested.
pub fn digest_chunks(record: &[u8]) -> usize {
    let mut chunks = 0;
    for chunk in record.chunks(CHUNK_BYTES) {
        black_box(ChunkDigest::of(chunk));
        chunks += 1;
    }
    chunks
}

/// The in-memory transport a live reshape hands the state over through.
pub struct MemHandoff {
    inner: MemTransport,
    scratch: Vec<u8>,
}

impl MemHandoff {
    pub fn new() -> MemHandoff {
        MemHandoff {
            inner: MemTransport::new(),
            scratch: Vec::new(),
        }
    }

    pub fn put(&mut self, state: &State, count: u64) -> Res<u64> {
        let fields = [("S", FieldSource::Cell(&state.cell as &dyn StateCell))];
        self.inner
            .put_master(&master_meta(count), &fields, &mut self.scratch)
            .map_err(|e| err("memory put_master", e))
    }

    /// Install the held record into `into`; returns its checksum.
    pub fn install(&self, into: &State) -> Res<u64> {
        let mut sum = None;
        let found = self
            .inner
            .with_merged_master(&mut |snap| {
                let payload = snap.field("S").ok_or_else(|| {
                    ppar_core::error::PparError::CorruptCheckpoint("no field S".into())
                })?;
                into.cell.load_bytes(payload)?;
                sum = Some(into.checksum());
                Ok(())
            })
            .map_err(|e| err("memory restore", e))?;
        sum.filter(|_| found)
            .ok_or_else(|| "memory transport holds no record".to_string())
    }
}

// ---------------------------------------------------------------------------
// the wire: two fabric endpoints of this process over loopback
// ---------------------------------------------------------------------------

const USER_TAG_BIT: u64 = 1 << 63;
/// Client to root: an empty payload ends the session, any other is echoed.
const CONTROL_TAG: u64 = USER_TAG_BIT | 0x1ed6e7;
const ECHO_TAG: u64 = USER_TAG_BIT | 0x1ed6e8;

/// The client end of a wire session.
pub struct WireClient {
    fabric: Arc<dyn Fabric>,
    transport: NetTransport,
    scratch: Vec<u8>,
    /// Both `TcpFabric::connect` calls, rendezvous included.
    pub connect_s: f64,
}

impl WireClient {
    /// Save the whole state through the root's store; returns on the ack.
    pub fn put(&mut self, state: &State, count: u64) -> Res<PutCount> {
        let fields = [("S", FieldSource::Cell(&state.cell as &dyn StateCell))];
        let written = self
            .transport
            .put_master(&master_meta(count), &fields, &mut self.scratch)
            .map_err(|e| err("remote put_master", e))?;
        Ok(put_count(written, &self.transport))
    }

    /// Stream the merged master record from the root into `out`.
    pub fn get(&self, out: &mut Vec<u8>) -> Res<u64> {
        out.clear();
        self.transport
            .write_merged_record(None, out)
            .map_err(|e| err("remote restore", e))?
            .ok_or_else(|| "root holds no master record".to_string())
    }

    /// One byte to the root and back.
    pub fn ping(&self) -> Res<()> {
        self.fabric.send(1, 0, CONTROL_TAG, Arc::new(vec![1u8]));
        self.fabric
            .recv(1, 0, ECHO_TAG)
            .map(|_| ())
            .map_err(|e| err("ping", e))
    }

    /// Bytes this end has sent so far, frames and control included.
    pub fn bytes_sent(&self) -> u64 {
        self.fabric.traffic().bytes()
    }
}

fn connect(rank: usize, root_addr: &str) -> Res<Arc<TcpFabric>> {
    let mut cfg = NetConfig::new(rank, 2, root_addr.to_string());
    cfg.recv_timeout = Duration::from_secs(60);
    TcpFabric::connect(&cfg).map_err(|e| err("fabric connect", e))
}

/// Run `body` against a root that serves a store in `root_dir`, created in
/// `layout`. The root is a second thread of this process on its own fabric
/// endpoint; the session ends, and the thread is joined, before this
/// returns.
pub fn wire_session<R>(
    root_dir: &Path,
    layout: Layout,
    body: impl FnOnce(&mut WireClient) -> Res<R>,
) -> Res<R> {
    let addr = free_loopback_addr().map_err(|e| err("loopback address", e))?;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let root = scope.spawn(|| -> Res<()> {
            let fabric = connect(0, &addr)?;
            let dynamic: Arc<dyn Fabric> = fabric.clone();
            let store = open_store(root_dir, layout, CasConfig::default().gc_grace)?;
            let service = NetTransport::serve(dynamic.clone(), 0, Arc::new(store));
            let served = loop {
                match dynamic.recv(0, 1, CONTROL_TAG) {
                    Ok(msg) if msg.is_empty() => break Ok(()),
                    Ok(msg) => dynamic.send(0, 1, ECHO_TAG, msg),
                    Err(e) => break Err(err("root control channel", e)),
                }
            };
            service.stop();
            fabric.shutdown();
            served
        });
        let client = connect(1, &addr).and_then(|fabric| {
            let dynamic: Arc<dyn Fabric> = fabric.clone();
            let mut client = WireClient {
                transport: NetTransport::client(dynamic.clone(), 1),
                fabric: dynamic.clone(),
                scratch: Vec::new(),
                connect_s: secs(started.elapsed()),
            };
            let result = body(&mut client);
            dynamic.send(1, 0, CONTROL_TAG, Arc::new(Vec::new()));
            fabric.shutdown();
            result
        });
        let served = root
            .join()
            .map_err(|_| "the root thread panicked".to_string())?;
        let result = client?;
        served?;
        Ok(result)
    })
}

// ---------------------------------------------------------------------------
// probes: one layer primitive each, timed from inside a launch
// ---------------------------------------------------------------------------

fn probe_launch<R: Send>(
    eng: Eng,
    plan: Plan,
    dir: Option<&Path>,
    app: impl Fn(&Ctx) -> R + Sync,
) -> Res<R> {
    let out = launch(&eng.deploy(), plan, dir, None, |ctx| {
        (AppStatus::Completed, app(ctx))
    })
    .map_err(|e| err("probe launch", e))?;
    out.results
        .into_iter()
        .next()
        .map(|(_, r)| r)
        .ok_or_else(|| "probe launch returned no result".to_string())
}

/// Seconds per join point: an empty `ctx.call` and an unplugged `ctx.point`
/// under the sequential engine, `n` of each.
pub fn probe_joinpoint_s(n: usize) -> Res<f64> {
    probe_launch(Eng::Seq, Plan::new(), None, |ctx| {
        let start = Instant::now();
        for _ in 0..n {
            ctx.call("noop", |_| {});
            ctx.point("nowhere");
        }
        secs(start.elapsed()) / (2 * n) as f64
    })
}

/// Seconds per cell update of one red and one black sweep over an `n`×`n`
/// grid: `(through SharedGrid::get/set, on a raw slice)`. The arithmetic is
/// `relax_row` in both.
pub fn probe_grid_access_s(n: usize, seed: u64) -> (f64, f64) {
    let shared = SharedGrid::new(n, n, 0.0f64);
    ppar_jgf::sor::fill_grid(&shared, seed);
    let mut raw: Vec<f64> = shared.flat().to_vec();
    let cells = (n.saturating_sub(2) * n.saturating_sub(2)).max(1) as f64;

    let start = Instant::now();
    for color in 0..2 {
        for i in 1..n - 1 {
            relax_row(n, i, color, 1.25, &|r, c| shared.get(r, c), &|r, c, v| {
                shared.set(r, c, v)
            });
        }
    }
    let through_grid = secs(start.elapsed()) / cells;

    let view = Cell::from_mut(raw.as_mut_slice()).as_slice_of_cells();
    let start = Instant::now();
    for color in 0..2 {
        for i in 1..n - 1 {
            relax_row(
                n,
                i,
                color,
                1.25,
                &|r, c| view[r * n + c].get(),
                &|r, c, v| view[r * n + c].set(v),
            );
        }
    }
    let on_slice = secs(start.elapsed()) / cells;
    black_box((shared.sum_f64(), raw.iter().sum::<f64>()));
    (through_grid, on_slice)
}

/// Seconds per empty parallel region on `smp2` (fork and join of the team).
pub fn probe_region_forkjoin_s(n: usize) -> Res<f64> {
    let plan = Plan::new().plug(Plug::ParallelMethod {
        method: "empty".into(),
    });
    probe_launch(Eng::Smp2, plan, None, |ctx| {
        let start = Instant::now();
        for _ in 0..n {
            ctx.region("empty", |_| {});
        }
        secs(start.elapsed()) / n as f64
    })
}

/// Seconds per empty work-shared loop inside one region on `smp2` (claim
/// plus the closing barrier).
pub fn probe_each_barrier_s(n: usize) -> Res<f64> {
    let plan = Plan::new()
        .plug(Plug::ParallelMethod {
            method: "team".into(),
        })
        .plug(Plug::For {
            loop_name: "nothing".into(),
            schedule: Schedule::Block,
        });
    let per_loop = AtomicU64::new(0);
    probe_launch(Eng::Smp2, plan, None, |ctx| {
        ctx.region("team", |ctx| {
            let start = Instant::now();
            for _ in 0..n {
                ctx.each("nothing", 0..2, |_, _| {});
            }
            if ctx.is_master() {
                let each = secs(start.elapsed()) / n as f64;
                per_loop.store(each.to_bits(), Ordering::SeqCst);
            }
        });
    })?;
    Ok(f64::from_bits(per_loop.load(Ordering::SeqCst)))
}

/// Seconds per crossing of a safe point at which nothing is due (`every =
/// 0`, module plugged into `dir`), inside one region under `eng`.
pub fn probe_safepoint_s(eng: Eng, dir: &Path, n: usize) -> Res<f64> {
    let plan = Plan::new()
        .plug(Plug::ParallelMethod {
            method: "team".into(),
        })
        .plug(Plug::SafePoints {
            points: PointSet::Named(vec!["quiet".into()]),
            every: 0,
        });
    let per_point = AtomicU64::new(0);
    probe_launch(eng, plan, Some(dir), |ctx| {
        ctx.region("team", |ctx| {
            let start = Instant::now();
            for _ in 0..n {
                ctx.point("quiet");
            }
            if ctx.is_master() {
                let each = secs(start.elapsed()) / n as f64;
                per_point.store(each.to_bits(), Ordering::SeqCst);
            }
        });
    })?;
    Ok(f64::from_bits(per_point.load(Ordering::SeqCst)))
}

/// Seconds for `launch` to deploy `eng`, run an application that returns at
/// once, and tear down.
pub fn probe_launch_s(eng: Eng) -> Res<f64> {
    let plan = match eng {
        Eng::Dist2 => relax_plan_dist(),
        _ => Plan::new(),
    };
    let start = Instant::now();
    probe_launch(eng, plan, None, |_| ())?;
    Ok(secs(start.elapsed()))
}

/// Seconds per task of a graph of `n` empty one-item tasks on `task2`.
pub fn probe_task_overhead_s(n: usize) -> Res<f64> {
    let plan = Plan::new().plug(Plug::ParallelMethod {
        method: "work".into(),
    });
    let run = GraphRun::new(TaskGraph::chunked(n, 1), Policy::Steal);
    let per_task = AtomicU64::new(0);
    probe_launch(Eng::Task2, plan, None, |ctx| {
        ctx.region("work", |ctx| {
            let start = Instant::now();
            black_box(run.run(ctx, 1, &|_, _, _| 0.0));
            if ctx.is_master() {
                let each = secs(start.elapsed()) / n as f64;
                per_task.store(each.to_bits(), Ordering::SeqCst);
            }
        });
    })?;
    Ok(f64::from_bits(per_task.load(Ordering::SeqCst)))
}

/// Share of the propagation cost the busier of two workers executed, on a
/// graph shaped like the SMC step (the first quarter of the items costs
/// `heavy` times the rest). Counts cost units, not time, so it reads the
/// same on any machine whose two workers run side by side.
pub fn probe_worker_share(spec: &SmcSpec, steal: bool) -> Res<f64> {
    let policy = if steal {
        Policy::Steal
    } else {
        Policy::StaticBlock
    };
    let heavy = SmcConfig::new(1, 1).heavy_factor as u64;
    let n = spec.particles;
    let work = spec.work as u64;
    let run = GraphRun::new(TaskGraph::chunked(n, spec.chunk), policy);
    let loads = [AtomicU64::new(0), AtomicU64::new(0)];
    let plan = Plan::new().plug(Plug::ParallelMethod {
        method: "prop".into(),
    });
    probe_launch(Eng::Task2, plan, None, |ctx| {
        ctx.region("prop", |ctx| {
            run.run(ctx, 1, &|ctx, _, i| {
                let units = if i < n / 4 { work * heavy } else { work };
                let mut acc = 0.0f64;
                for k in 0..units {
                    acc += black_box((k as f64) + 1.5).sqrt();
                }
                black_box(acc);
                loads[ctx.worker().min(1)].fetch_add(units, Ordering::Relaxed);
                0.0
            });
        });
    })?;
    let [a, b] = loads.map(|l| l.into_inner());
    Ok(a.max(b) as f64 / (a + b).max(1) as f64)
}

/// Seconds rank 0 spends in the halo exchange before a sweep and in the
/// final gather, under the SOR distributed plan on an `n`×`n` grid:
/// `(per halo exchange, per gather)`. The base code here only announces
/// the points the plan hangs those updates on.
pub fn probe_halo_gather_s(n: usize, exchanges: usize) -> Res<(f64, f64)> {
    let timings = probe_launch(Eng::Dist2, plan_dist(), None, |ctx| {
        let _g = ctx.alloc_grid("G", n, n, 1.0f64);
        let start = Instant::now();
        for _ in 0..exchanges {
            ctx.point("pre_sweep");
        }
        let halo = secs(start.elapsed()) / exchanges as f64;
        let start = Instant::now();
        ctx.point("collect");
        (halo, secs(start.elapsed()))
    })?;
    Ok(timings)
}
