//! Plans and plugs: the pluggable-parallelisation configuration language.
//!
//! A [`Plan`] is the Rust equivalent of the paper's aspect modules: a set of
//! declarative [`Plug`]s that attach parallelisation, data-distribution,
//! checkpointing and adaptation behaviour to *named join points* of the base
//! program (methods, loops, fields and execution points). The base program
//! only announces join points through its [`crate::ctx::Ctx`] handle; with an
//! empty plan every construct degenerates to plain sequential execution —
//! this is the "unplugged" property that lets one code base deploy as
//! sequential, shared-memory, distributed or hybrid.
//!
//! Plans live in separate modules from the domain code (typically one
//! function per deployment target returning a `Plan`) and can be composed
//! with [`Plan::merge`], mirroring the paper's module composition (e.g.
//! hybrid shared/distributed parallelisation = distributed plan ⊕ shared
//! plan ⊕ checkpoint plan).

use std::collections::{HashMap, HashSet};

use crate::partition::{FieldDist, Partition};
use crate::schedule::Schedule;

/// Reduction operators for combining per-worker or per-element values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Sum of all contributions.
    Sum,
    /// Product of all contributions.
    Prod,
    /// Minimum contribution.
    Min,
    /// Maximum contribution.
    Max,
}

impl ReduceOp {
    /// Apply the operator to two `f64` operands.
    pub fn apply_f64(&self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// A data-movement action bound to a named execution point (the paper's
/// "points in execution where data is partitioned and scattered, gathered
/// and updated", §III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateAction {
    /// Exchange `halo` boundary rows/indices of a block-partitioned field
    /// with neighbouring aggregate elements.
    HaloExchange {
        /// Halo depth in indices (rows for grids).
        halo: usize,
    },
    /// Collect the partitioned field into the master element.
    Gather,
    /// Distribute the master element's field to all partitions.
    Scatter,
    /// Copy the master element's replicated field to every element.
    Broadcast,
    /// Combine a field element-wise across the aggregate with `op`,
    /// leaving the result everywhere.
    AllReduce(ReduceOp),
}

/// Which execution points are checkpointable safe points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointSet {
    /// Every announced execution point is a safe point.
    All,
    /// Only the named points.
    Named(Vec<String>),
}

impl PointSet {
    /// Membership test.
    pub fn contains(&self, name: &str) -> bool {
        match self {
            PointSet::All => true,
            PointSet::Named(names) => names.iter().any(|n| n == name),
        }
    }
}

/// Strategy for checkpointing partitioned data in distributed mode (§IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistCkptStrategy {
    /// Collect partitioned fields on the master, which writes one snapshot.
    /// Requires no barriers and allows restarting in *any* execution mode.
    #[default]
    MasterCollect,
    /// Each element snapshots its own partition locally; needs two global
    /// barriers and restart must use the same element count.
    LocalSnapshot,
}

/// One pluggable declaration. Each variant corresponds to a template of the
/// paper's programming model; the `method`/`loop_name`/`field`/`point`
/// strings are join-point names announced by the base code.
#[derive(Debug, Clone, PartialEq)]
pub enum Plug {
    // ---- shared-memory parallelisation (§III.B) ----
    /// `ParallelMethod<m>`: execute method `m` by a team of threads.
    ParallelMethod {
        /// Join-point name of the method.
        method: String,
    },
    /// `For<l, schedule>`: work-share loop `l` among the team.
    For {
        /// Join-point name of the loop.
        loop_name: String,
        /// Iteration schedule.
        schedule: Schedule,
    },
    /// `Synchronized<m>`: run method `m` in mutual exclusion within the team.
    Synchronized {
        /// Join-point name of the method.
        method: String,
    },
    /// `Single<m>`: method `m` executes on exactly one team member per epoch.
    Single {
        /// Join-point name of the method.
        method: String,
    },
    /// `Master<m>`: method `m` executes only on the team master.
    Master {
        /// Join-point name of the method.
        method: String,
    },
    /// `Barrier<m, when>`: insert a team barrier before and/or after `m`.
    Barrier {
        /// Join-point name of the method.
        method: String,
        /// Barrier before entry?
        before: bool,
        /// Barrier after exit?
        after: bool,
    },

    // ---- distributed-memory parallelisation (§III.C) ----
    /// `Replicate<class>`: turn the program's single logical instance into an
    /// object aggregate with one element per process. (In this runtime the
    /// aggregate is implicit — every process runs the SPMD base code — so
    /// this plug is a marker: [`Plan::len`] counts it, no engine reads it.)
    Replicate {
        /// Logical class/instance name.
        class: String,
    },
    /// Field distribution marker: Replicated, Partitioned(partition) or
    /// Local (§IV.B). Unmarked fields default to Local.
    Field {
        /// Field name (as registered at allocation).
        field: String,
        /// Distribution.
        dist: FieldDist,
    },
    /// `ScatterBefore<m, f>`: scatter partitioned field `f` from the master
    /// before executing method `m`.
    ScatterBefore {
        /// Method join point.
        method: String,
        /// Partitioned field.
        field: String,
    },
    /// `GatherAfter<m, f>`: gather partitioned field `f` to the master after
    /// executing method `m`.
    GatherAfter {
        /// Method join point.
        method: String,
        /// Partitioned field.
        field: String,
    },
    /// `BroadcastBefore<m, f>`: broadcast replicated field `f` from the
    /// master before executing `m`.
    BroadcastBefore {
        /// Method join point.
        method: String,
        /// Replicated field.
        field: String,
    },
    /// `ReduceAfter<m, f, op>`: element-wise all-reduce of field `f` after
    /// executing `m`.
    ReduceAfter {
        /// Method join point.
        method: String,
        /// Field to combine.
        field: String,
        /// Combine operator.
        op: ReduceOp,
    },
    /// `DistFor<l, f>`: in distributed mode, loop `l` iterates only the
    /// indices of field `f`'s partition owned by the local element.
    DistFor {
        /// Loop join point.
        loop_name: String,
        /// Partitioned field the loop is aligned with.
        field: String,
    },
    /// `OnElement<m, id>`: delegate method `m` to aggregate element `id`
    /// (other elements skip it).
    OnElement {
        /// Method join point.
        method: String,
        /// Executing element id.
        id: usize,
    },
    /// `UpdateAt<p, f, action>`: perform a data-movement action on field `f`
    /// whenever execution point `p` is announced.
    UpdateAt {
        /// Execution-point join point.
        point: String,
        /// Field to move.
        field: String,
        /// Movement action.
        action: UpdateAction,
    },

    // ---- checkpointing (§IV.A) ----
    /// `SafeData<f>`: include field `f` in checkpoints.
    SafeData {
        /// Field name.
        field: String,
    },
    /// `SafePoints<set, every>`: which execution points are safe points, and
    /// how many safe points elapse between checkpoints (`every = 0` disables
    /// automatic snapshots; safe points are still counted, which is what the
    /// "0 checkpoints taken" rows of Fig. 3 measure).
    SafePoints {
        /// The safe-point set.
        points: PointSet,
        /// Snapshot period in safe points (0 = never snapshot).
        every: usize,
    },
    /// `IgnorableMethods<[m...]>`: methods skipped while replaying a restart.
    Ignorable {
        /// Method join point.
        method: String,
    },
    /// Distributed checkpoint strategy selector.
    DistCkpt {
        /// Strategy for partitioned fields.
        strategy: DistCkptStrategy,
    },
    /// Incremental (dirty-chunk) checkpointing. It no longer changes what a
    /// save writes: every save, with or without it, is one full record
    /// that writes only the chunks changed since the record its file held,
    /// so a restart reads one record. Older builds wrote a chain of delta
    /// records under it, which a restart still folds; the plug stays
    /// parseable for the plans and tools that name it.
    IncrementalCkpt {
        /// The chain length after which older builds promoted a full base;
        /// nothing reads it.
        full_every: usize,
    },
}

/// An immutable, indexed set of plugs. Built once per deployment target and
/// queried by the engines on every construct entry.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    plugs: Vec<Plug>,
    parallel_methods: HashSet<String>,
    for_loops: HashMap<String, Schedule>,
    synchronized: HashSet<String>,
    single: HashSet<String>,
    master: HashSet<String>,
    barriers: HashMap<String, (bool, bool)>,
    fields: HashMap<String, FieldDist>,
    scatter_before: HashMap<String, Vec<String>>,
    gather_after: HashMap<String, Vec<String>>,
    broadcast_before: HashMap<String, Vec<String>>,
    reduce_after: HashMap<String, Vec<(String, ReduceOp)>>,
    dist_for: HashMap<String, String>,
    on_element: HashMap<String, usize>,
    updates_at: HashMap<String, Vec<(String, UpdateAction)>>,
    safe_data: Vec<String>,
    safe_points: Option<(PointSet, usize)>,
    ignorable: HashSet<String>,
    dist_ckpt: DistCkptStrategy,
    /// Is [`Plug::IncrementalCkpt`] plugged? Only validation asks.
    incremental_ckpt: bool,
}

impl Plan {
    /// An empty plan: every construct is an identity — the strict sequential
    /// deployment of the base code.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Add one plug (builder style).
    pub fn plug(mut self, plug: Plug) -> Self {
        self.add(plug);
        self
    }

    /// Add one plug in place.
    pub fn add(&mut self, plug: Plug) {
        match &plug {
            Plug::ParallelMethod { method } => {
                self.parallel_methods.insert(method.clone());
            }
            Plug::For {
                loop_name,
                schedule,
            } => {
                self.for_loops.insert(loop_name.clone(), *schedule);
            }
            Plug::Synchronized { method } => {
                self.synchronized.insert(method.clone());
            }
            Plug::Single { method } => {
                self.single.insert(method.clone());
            }
            Plug::Master { method } => {
                self.master.insert(method.clone());
            }
            Plug::Barrier {
                method,
                before,
                after,
            } => {
                let e = self
                    .barriers
                    .entry(method.clone())
                    .or_insert((false, false));
                e.0 |= *before;
                e.1 |= *after;
            }
            Plug::Replicate { .. } => {}
            Plug::Field { field, dist } => {
                self.fields.insert(field.clone(), *dist);
            }
            Plug::ScatterBefore { method, field } => self
                .scatter_before
                .entry(method.clone())
                .or_default()
                .push(field.clone()),
            Plug::GatherAfter { method, field } => self
                .gather_after
                .entry(method.clone())
                .or_default()
                .push(field.clone()),
            Plug::BroadcastBefore { method, field } => self
                .broadcast_before
                .entry(method.clone())
                .or_default()
                .push(field.clone()),
            Plug::ReduceAfter { method, field, op } => self
                .reduce_after
                .entry(method.clone())
                .or_default()
                .push((field.clone(), *op)),
            Plug::DistFor { loop_name, field } => {
                self.dist_for.insert(loop_name.clone(), field.clone());
            }
            Plug::OnElement { method, id } => {
                self.on_element.insert(method.clone(), *id);
            }
            Plug::UpdateAt {
                point,
                field,
                action,
            } => self
                .updates_at
                .entry(point.clone())
                .or_default()
                .push((field.clone(), *action)),
            Plug::SafeData { field } => {
                if !self.safe_data.contains(field) {
                    self.safe_data.push(field.clone());
                }
            }
            Plug::SafePoints { points, every } => {
                self.safe_points = Some((points.clone(), *every));
            }
            Plug::Ignorable { method } => {
                self.ignorable.insert(method.clone());
            }
            Plug::DistCkpt { strategy } => {
                self.dist_ckpt = *strategy;
            }
            Plug::IncrementalCkpt { .. } => {
                self.incremental_ckpt = true;
            }
        }
        self.plugs.push(plug);
    }

    /// Compose two plans (module composition). `other`'s scalar settings
    /// (safe-point policy, distributed checkpoint strategy) win on conflict.
    pub fn merge(mut self, other: Plan) -> Plan {
        for plug in other.plugs {
            self.add(plug);
        }
        self
    }

    /// All plugs in insertion order.
    pub fn plugs(&self) -> &[Plug] {
        &self.plugs
    }

    /// Number of plugs (the paper's "programming overhead" metric: the plan
    /// is everything the programmer writes beyond the base code).
    pub fn len(&self) -> usize {
        self.plugs.len()
    }

    /// True when no plugs are installed (strict sequential deployment).
    pub fn is_empty(&self) -> bool {
        self.plugs.is_empty()
    }

    // ---- queries used by engines ----

    /// Is `method` declared as a parallel method?
    pub fn is_parallel_method(&self, method: &str) -> bool {
        self.parallel_methods.contains(method)
    }

    /// Work-sharing schedule for loop `loop_name`, if plugged.
    pub fn for_schedule(&self, loop_name: &str) -> Option<Schedule> {
        self.for_loops.get(loop_name).copied()
    }

    /// Is `method` declared synchronized (mutual exclusion in the team)?
    pub fn is_synchronized(&self, method: &str) -> bool {
        self.synchronized.contains(method)
    }

    /// Is `method` declared single (one executor per epoch)?
    pub fn is_single(&self, method: &str) -> bool {
        self.single.contains(method)
    }

    /// Is `method` declared master-only?
    pub fn is_master_only(&self, method: &str) -> bool {
        self.master.contains(method)
    }

    /// Barrier placement `(before, after)` for `method`.
    pub fn barrier_around(&self, method: &str) -> (bool, bool) {
        self.barriers.get(method).copied().unwrap_or((false, false))
    }

    /// Declared distribution of `field` (Local when unmarked, §IV.B).
    pub fn field_dist(&self, field: &str) -> FieldDist {
        self.fields.get(field).copied().unwrap_or(FieldDist::Local)
    }

    /// Partition of `field` if it is declared Partitioned.
    pub fn field_partition(&self, field: &str) -> Option<Partition> {
        match self.field_dist(field) {
            FieldDist::Partitioned(p) => Some(p),
            _ => None,
        }
    }

    /// Fields to scatter before entering `method`.
    pub fn scatters_before(&self, method: &str) -> &[String] {
        self.scatter_before
            .get(method)
            .map_or(&[], |v| v.as_slice())
    }

    /// Fields to gather after leaving `method`.
    pub fn gathers_after(&self, method: &str) -> &[String] {
        self.gather_after.get(method).map_or(&[], |v| v.as_slice())
    }

    /// Fields to broadcast before entering `method`.
    pub fn broadcasts_before(&self, method: &str) -> &[String] {
        self.broadcast_before
            .get(method)
            .map_or(&[], |v| v.as_slice())
    }

    /// Fields (with operators) to all-reduce after leaving `method`.
    pub fn reduces_after(&self, method: &str) -> &[(String, ReduceOp)] {
        self.reduce_after.get(method).map_or(&[], |v| v.as_slice())
    }

    /// Field a distributed loop is aligned with, if plugged.
    pub fn dist_for_field(&self, loop_name: &str) -> Option<&str> {
        self.dist_for.get(loop_name).map(|s| s.as_str())
    }

    /// Element a method is delegated to, if plugged.
    pub fn delegated_element(&self, method: &str) -> Option<usize> {
        self.on_element.get(method).copied()
    }

    /// Data-movement actions bound to execution point `point`.
    pub fn updates_at(&self, point: &str) -> &[(String, UpdateAction)] {
        self.updates_at.get(point).map_or(&[], |v| v.as_slice())
    }

    /// Every field with a halo-exchange update plug, with its maximum halo
    /// depth. Used to refresh halos after a checkpoint restore or an
    /// adaptation-time repartitioning.
    pub fn halo_fields(&self) -> Vec<(String, usize)> {
        let mut depths: HashMap<&str, usize> = HashMap::new();
        for acts in self.updates_at.values() {
            for (field, act) in acts {
                if let UpdateAction::HaloExchange { halo } = act {
                    let e = depths.entry(field.as_str()).or_insert(0);
                    *e = (*e).max(*halo);
                }
            }
        }
        let mut v: Vec<(String, usize)> = depths
            .into_iter()
            .map(|(f, d)| (f.to_string(), d))
            .collect();
        v.sort();
        v
    }

    /// `field`'s depth in [`Plan::halo_fields`] (0 without a halo-exchange
    /// plug).
    pub fn halo_depth(&self, field: &str) -> usize {
        self.updates_at
            .values()
            .flatten()
            .filter_map(|(f, act)| match act {
                UpdateAction::HaloExchange { halo } if f == field => Some(*halo),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Fields included in checkpoints, in declaration order.
    pub fn safe_data(&self) -> &[String] {
        &self.safe_data
    }

    /// Is `point` a safe point under the current policy?
    pub fn is_safe_point(&self, point: &str) -> bool {
        self.safe_points
            .as_ref()
            .map(|(set, _)| set.contains(point))
            .unwrap_or(false)
    }

    /// Snapshot period in safe points (`None` when no SafePoints plug is
    /// installed; `Some(0)` when safe points are counted but never persisted).
    pub fn checkpoint_every(&self) -> Option<usize> {
        self.safe_points.as_ref().map(|(_, every)| *every)
    }

    /// Is `method` skippable during restart replay?
    pub fn is_ignorable(&self, method: &str) -> bool {
        self.ignorable.contains(method)
    }

    /// Distributed checkpoint strategy (defaults to master-collect).
    pub fn dist_ckpt_strategy(&self) -> DistCkptStrategy {
        self.dist_ckpt
    }

    /// Validate internal consistency; returns human-readable problems.
    /// (E.g. `ScatterBefore` on a field not declared Partitioned, `DistFor`
    /// aligned with a non-partitioned field, halo exchange on a cyclic
    /// partition.)
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let check_partitioned = |field: &str, site: &str, problems: &mut Vec<String>| {
            if self.field_partition(field).is_none() {
                problems.push(format!(
                    "{site} references field {field:?} which is not declared Partitioned"
                ));
            }
        };
        for (m, fs) in &self.scatter_before {
            for f in fs {
                check_partitioned(f, &format!("ScatterBefore<{m}>"), &mut problems);
            }
        }
        for (m, fs) in &self.gather_after {
            for f in fs {
                check_partitioned(f, &format!("GatherAfter<{m}>"), &mut problems);
            }
        }
        for (l, f) in &self.dist_for {
            check_partitioned(f, &format!("DistFor<{l}>"), &mut problems);
        }
        for (m, fs) in &self.broadcast_before {
            for f in fs {
                if !matches!(self.field_dist(f), FieldDist::Replicated) {
                    problems.push(format!(
                        "BroadcastBefore<{m}> references field {f:?} which is not Replicated"
                    ));
                }
            }
        }
        if self.incremental_ckpt && self.safe_points.is_none() {
            problems.push(
                "IncrementalCkpt installed without a SafePoints plug (no snapshot \
                 will ever be taken)"
                    .to_string(),
            );
        }
        for (p, acts) in &self.updates_at {
            for (f, act) in acts {
                if let UpdateAction::HaloExchange { .. } = act {
                    match self.field_partition(f) {
                        Some(Partition::Block) => {}
                        Some(other) => problems.push(format!(
                            "UpdateAt<{p}> halo exchange on field {f:?} requires Block \
                             partition, found {other:?}"
                        )),
                        None => problems.push(format!(
                            "UpdateAt<{p}> halo exchange on field {f:?} which is not Partitioned"
                        )),
                    }
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> Plan {
        Plan::new()
            .plug(Plug::ParallelMethod {
                method: "Do".into(),
            })
            .plug(Plug::For {
                loop_name: "rows".into(),
                schedule: Schedule::Block,
            })
            .plug(Plug::Field {
                field: "G".into(),
                dist: FieldDist::Partitioned(Partition::Block),
            })
            .plug(Plug::ScatterBefore {
                method: "Do".into(),
                field: "G".into(),
            })
            .plug(Plug::GatherAfter {
                method: "Do".into(),
                field: "G".into(),
            })
            .plug(Plug::SafeData { field: "G".into() })
            .plug(Plug::SafePoints {
                points: PointSet::Named(vec!["iter".into()]),
                every: 10,
            })
            .plug(Plug::Ignorable {
                method: "stencil".into(),
            })
    }

    #[test]
    fn empty_plan_is_identity() {
        let p = Plan::new();
        assert!(p.is_empty());
        assert!(!p.is_parallel_method("Do"));
        assert_eq!(p.for_schedule("rows"), None);
        assert_eq!(p.field_dist("G"), FieldDist::Local);
        assert!(!p.is_safe_point("iter"));
        assert_eq!(p.checkpoint_every(), None);
        assert!(p.validate().is_empty());
    }

    #[test]
    fn queries_reflect_plugs() {
        let p = sample_plan();
        assert!(p.is_parallel_method("Do"));
        assert!(!p.is_parallel_method("Other"));
        assert_eq!(p.for_schedule("rows"), Some(Schedule::Block));
        assert_eq!(p.field_partition("G"), Some(Partition::Block));
        assert_eq!(p.scatters_before("Do"), &["G".to_string()]);
        assert_eq!(p.gathers_after("Do"), &["G".to_string()]);
        assert_eq!(p.safe_data(), &["G".to_string()]);
        assert!(p.is_safe_point("iter"));
        assert!(!p.is_safe_point("other"));
        assert_eq!(p.checkpoint_every(), Some(10));
        assert!(p.is_ignorable("stencil"));
        assert!(p.validate().is_empty());
    }

    #[test]
    fn merge_composes_modules() {
        let par = Plan::new().plug(Plug::ParallelMethod {
            method: "Do".into(),
        });
        let ckpt = Plan::new()
            .plug(Plug::SafeData { field: "G".into() })
            .plug(Plug::SafePoints {
                points: PointSet::All,
                every: 5,
            });
        let both = par.merge(ckpt);
        assert!(both.is_parallel_method("Do"));
        assert!(both.is_safe_point("anything"));
        assert_eq!(both.checkpoint_every(), Some(5));
        assert_eq!(both.len(), 3);
    }

    #[test]
    fn merge_later_policy_wins() {
        let a = Plan::new().plug(Plug::SafePoints {
            points: PointSet::All,
            every: 5,
        });
        let b = Plan::new().plug(Plug::SafePoints {
            points: PointSet::Named(vec!["p".into()]),
            every: 7,
        });
        let merged = a.merge(b);
        assert_eq!(merged.checkpoint_every(), Some(7));
        assert!(merged.is_safe_point("p"));
        assert!(!merged.is_safe_point("q"));
    }

    #[test]
    fn validate_flags_undistributed_fields() {
        let p = Plan::new().plug(Plug::ScatterBefore {
            method: "Do".into(),
            field: "G".into(),
        });
        let problems = p.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("not declared Partitioned"));
    }

    #[test]
    fn validate_flags_halo_on_cyclic() {
        let p = Plan::new()
            .plug(Plug::Field {
                field: "G".into(),
                dist: FieldDist::Partitioned(Partition::Cyclic),
            })
            .plug(Plug::UpdateAt {
                point: "it".into(),
                field: "G".into(),
                action: UpdateAction::HaloExchange { halo: 1 },
            });
        let problems = p.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("requires Block"));
    }

    #[test]
    fn barrier_plugs_accumulate() {
        let p = Plan::new()
            .plug(Plug::Barrier {
                method: "m".into(),
                before: true,
                after: false,
            })
            .plug(Plug::Barrier {
                method: "m".into(),
                before: false,
                after: true,
            });
        assert_eq!(p.barrier_around("m"), (true, true));
        assert_eq!(p.barrier_around("other"), (false, false));
    }

    #[test]
    fn reduce_op_semantics() {
        assert_eq!(ReduceOp::Sum.apply_f64(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Prod.apply_f64(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Min.apply_f64(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.apply_f64(2.0, 3.0), 3.0);
    }

    #[test]
    fn safe_data_deduplicates() {
        let p = Plan::new()
            .plug(Plug::SafeData { field: "G".into() })
            .plug(Plug::SafeData { field: "G".into() });
        assert_eq!(p.safe_data().len(), 1);
    }

    #[test]
    fn incremental_ckpt_plug_facts() {
        let p = Plan::new()
            .plug(Plug::SafePoints {
                points: PointSet::All,
                every: 5,
            })
            .plug(Plug::IncrementalCkpt { full_every: 8 });
        assert!(p.validate().is_empty());

        // Incremental without safe points is flagged.
        let problems = Plan::new()
            .plug(Plug::IncrementalCkpt { full_every: 0 })
            .validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("SafePoints"));
    }
}
