//! Template-style macros approximating the paper's aspect notation.
//!
//! The paper writes plugs as templates next to (not inside) the base code:
//!
//! ```text
//! // Partitioned<TestArray,BLOCK>
//! // ScatterBefore<Do(),TestArray>
//! // GatherAfter<Do(),TestArray>
//! ```
//!
//! The `plan!` macro reproduces that surface syntax in Rust, expanding to a
//! [`crate::plan::Plan`] value. Example:
//!
//! ```
//! use ppar_core::plan;
//! use ppar_core::schedule::Schedule;
//! use ppar_core::partition::Partition;
//!
//! let p = plan! {
//!     ParallelMethod("Do");
//!     For("rows", Schedule::Block);
//!     Partitioned("G", Partition::Block);
//!     ScatterBefore("Do", "G");
//!     GatherAfter("Do", "G");
//!     SafeData("G");
//!     SafePoints(["iter"], every = 10);
//!     IgnorableMethods("sweep");
//! };
//! assert!(p.is_parallel_method("Do"));
//! assert!(p.is_safe_point("iter"));
//! ```

/// Build a [`crate::plan::Plan`] from template-style statements (see module
/// docs for the full grammar). Every statement ends with `;`.
#[macro_export]
macro_rules! plan {
    () => { $crate::plan::Plan::new() };
    ($($rest:tt)*) => {{
        let p = $crate::plan::Plan::new();
        $crate::plan_items!(p; $($rest)*)
    }};
}

/// Internal muncher for [`plan!`]; not intended for direct use.
#[doc(hidden)]
#[macro_export]
macro_rules! plan_items {
    ($p:expr;) => { $p };
    // ---- shared memory ----
    ($p:expr; ParallelMethod($m:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::ParallelMethod { method: $m.into() }); $($rest)*)
    };
    ($p:expr; For($l:expr, $s:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::For { loop_name: $l.into(), schedule: $s }); $($rest)*)
    };
    ($p:expr; Synchronized($m:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Synchronized { method: $m.into() }); $($rest)*)
    };
    ($p:expr; Single($m:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Single { method: $m.into() }); $($rest)*)
    };
    ($p:expr; Master($m:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Master { method: $m.into() }); $($rest)*)
    };
    ($p:expr; BarrierBefore($m:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Barrier { method: $m.into(), before: true, after: false }); $($rest)*)
    };
    ($p:expr; BarrierAfter($m:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Barrier { method: $m.into(), before: false, after: true }); $($rest)*)
    };
    // ---- distributed memory ----
    ($p:expr; Replicate($c:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Replicate { class: $c.into() }); $($rest)*)
    };
    ($p:expr; Partitioned($f:expr, $part:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Field {
            field: $f.into(),
            dist: $crate::partition::FieldDist::Partitioned($part),
        }); $($rest)*)
    };
    ($p:expr; Replicated($f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Field {
            field: $f.into(),
            dist: $crate::partition::FieldDist::Replicated,
        }); $($rest)*)
    };
    ($p:expr; LocalField($f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::Field {
            field: $f.into(),
            dist: $crate::partition::FieldDist::Local,
        }); $($rest)*)
    };
    ($p:expr; ScatterBefore($m:expr, $f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::ScatterBefore { method: $m.into(), field: $f.into() }); $($rest)*)
    };
    ($p:expr; GatherAfter($m:expr, $f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::GatherAfter { method: $m.into(), field: $f.into() }); $($rest)*)
    };
    ($p:expr; BroadcastBefore($m:expr, $f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::BroadcastBefore { method: $m.into(), field: $f.into() }); $($rest)*)
    };
    ($p:expr; ReduceAfter($m:expr, $f:expr, $op:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::ReduceAfter { method: $m.into(), field: $f.into(), op: $op }); $($rest)*)
    };
    ($p:expr; DistFor($l:expr, $f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::DistFor { loop_name: $l.into(), field: $f.into() }); $($rest)*)
    };
    ($p:expr; OnElement($m:expr, $id:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::OnElement { method: $m.into(), id: $id }); $($rest)*)
    };
    ($p:expr; HaloExchangeAt($pt:expr, $f:expr, $depth:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::UpdateAt {
            point: $pt.into(),
            field: $f.into(),
            action: $crate::plan::UpdateAction::HaloExchange { halo: $depth },
        }); $($rest)*)
    };
    ($p:expr; GatherAt($pt:expr, $f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::UpdateAt {
            point: $pt.into(),
            field: $f.into(),
            action: $crate::plan::UpdateAction::Gather,
        }); $($rest)*)
    };
    ($p:expr; ScatterAt($pt:expr, $f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::UpdateAt {
            point: $pt.into(),
            field: $f.into(),
            action: $crate::plan::UpdateAction::Scatter,
        }); $($rest)*)
    };
    ($p:expr; AllReduceAt($pt:expr, $f:expr, $op:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::UpdateAt {
            point: $pt.into(),
            field: $f.into(),
            action: $crate::plan::UpdateAction::AllReduce($op),
        }); $($rest)*)
    };
    // ---- checkpointing ----
    ($p:expr; SafeData($f:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::SafeData { field: $f.into() }); $($rest)*)
    };
    ($p:expr; SafePoints(all, every = $k:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::SafePoints {
            points: $crate::plan::PointSet::All,
            every: $k,
        }); $($rest)*)
    };
    ($p:expr; SafePoints([$($pt:expr),* $(,)?], every = $k:expr); $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::SafePoints {
            points: $crate::plan::PointSet::Named(vec![$($pt.into()),*]),
            every: $k,
        }); $($rest)*)
    };
    ($p:expr; IgnorableMethods($($m:expr),* $(,)?); $($rest:tt)*) => {{
        let mut p = $p;
        $( p.add($crate::plan::Plug::Ignorable { method: $m.into() }); )*
        $crate::plan_items!(p; $($rest)*)
    }};
    ($p:expr; MasterCollect; $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::DistCkpt {
            strategy: $crate::plan::DistCkptStrategy::MasterCollect,
        }); $($rest)*)
    };
    ($p:expr; LocalSnapshot; $($rest:tt)*) => {
        $crate::plan_items!($p.plug($crate::plan::Plug::DistCkpt {
            strategy: $crate::plan::DistCkptStrategy::LocalSnapshot,
        }); $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use crate::partition::{FieldDist, Partition};
    use crate::plan::{DistCkptStrategy, ReduceOp, UpdateAction};
    use crate::schedule::Schedule;

    #[test]
    fn plan_macro_builds_full_series_style_plan() {
        // The paper's Fig. 1 (JGF Series) distributed parallelisation.
        let p = plan! {
            Replicate("SeriesTest");
            Partitioned("TestArray", Partition::Block);
            ScatterBefore("Do", "TestArray");
            GatherAfter("Do", "TestArray");
            DistFor("coeff_loop", "TestArray");
        };
        assert_eq!(p.len(), 5, "the Replicate marker counts");
        assert_eq!(p.field_partition("TestArray"), Some(Partition::Block));
        assert_eq!(p.scatters_before("Do"), &["TestArray".to_string()]);
        assert_eq!(p.gathers_after("Do"), &["TestArray".to_string()]);
        assert_eq!(p.dist_for_field("coeff_loop"), Some("TestArray"));
        assert!(p.validate().is_empty());
    }

    #[test]
    fn plan_macro_shared_memory_statements() {
        let p = plan! {
            ParallelMethod("Do");
            For("rows", Schedule::Dynamic { chunk: 4 });
            Synchronized("log");
            Single("init");
            Master("report");
            BarrierBefore("phase2");
            BarrierAfter("phase2");
        };
        assert!(p.is_parallel_method("Do"));
        assert_eq!(p.for_schedule("rows"), Some(Schedule::Dynamic { chunk: 4 }));
        assert!(p.is_synchronized("log"));
        assert!(p.is_single("init"));
        assert!(p.is_master_only("report"));
        assert_eq!(p.barrier_around("phase2"), (true, true));
    }

    #[test]
    fn plan_macro_checkpoint_statements() {
        let p = plan! {
            SafeData("G");
            SafePoints(["iter_end", "phase_end"], every = 25);
            IgnorableMethods("sweep_red", "sweep_black");
            LocalSnapshot;
        };
        assert_eq!(p.safe_data(), &["G".to_string()]);
        assert!(p.is_safe_point("iter_end"));
        assert!(p.is_safe_point("phase_end"));
        assert!(!p.is_safe_point("elsewhere"));
        assert_eq!(p.checkpoint_every(), Some(25));
        assert!(p.is_ignorable("sweep_red"));
        assert!(p.is_ignorable("sweep_black"));
        assert_eq!(p.dist_ckpt_strategy(), DistCkptStrategy::LocalSnapshot);
    }

    #[test]
    fn plan_macro_update_points() {
        let p = plan! {
            Partitioned("G", Partition::Block);
            Replicated("omega");
            LocalField("scratch");
            HaloExchangeAt("iter_start", "G", 1);
            GatherAt("end", "G");
            ScatterAt("begin", "G");
            AllReduceAt("iter_end", "residual", ReduceOp::Max);
            SafePoints(all, every = 0);
        };
        assert_eq!(
            p.updates_at("iter_start"),
            &[("G".to_string(), UpdateAction::HaloExchange { halo: 1 })]
        );
        assert_eq!(
            p.updates_at("end"),
            &[("G".to_string(), UpdateAction::Gather)]
        );
        assert_eq!(p.field_dist("omega"), FieldDist::Replicated);
        assert_eq!(p.field_dist("scratch"), FieldDist::Local);
        assert!(p.is_safe_point("anything"));
        assert_eq!(p.checkpoint_every(), Some(0));
    }

    #[test]
    fn empty_plan_macro() {
        let p = plan! {};
        assert!(p.is_empty());
    }
}
