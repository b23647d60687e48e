//! Names, units and bounds of every metric, and the report one workload
//! produces. The names are fixed: later changes are judged by them.

use std::collections::BTreeMap;

use crate::json::{obj, Json};
use crate::stats::{summarize, Summary};

/// The six workloads, in the order they run.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sor_compute",
        "JGF SOR with no checkpoint plugs: join-point dispatch, grid access, team fork/join and halo \
         exchange do the work, ckpt/net/adapt none. overheads = pluggable seq/smp2/dist2 over hand-written.",
    ),
    (
        "ckpt_sparse",
        "sparse_relax rewriting 5% of a 16 MiB state per step, saved every step: a save should cost \
         O(dirty), compute is negligible. overheads = flat arm / delta arm / idle module, over no checkpoints.",
    ),
    (
        "ckpt_dense",
        "Same app rewriting 100% per step: nothing is clean, so dirty tracking and dedup can only \
         cost and raw encode and write rate dominate. overheads = flat / idle module / restart from chain, over none.",
    ),
    (
        "recover_reshape",
        "Read side: SOR crash and restart from a flat store, sparse_relax smp2->dist2 by in-memory \
         hand-off. overheads = failure at the end / failure at 3N/4 / live reshape, over undisturbed.",
    ),
    (
        "wire_ckpt",
        "Client to root over a loopback TcpFabric, 16 MiB state: frames, credit window and dedup \
         handshake, no compute. overheads = remote save / 5%-dirty re-save / save+restore over local.",
    ),
    (
        "smc_task",
        "Particle filter on the task engine, cost skewed to the first quarter: deques, steals and \
         quiescence checks do the work. overheads = checkpointing / steal over static / steal over seq.",
    ),
];

pub fn workload_known(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// An end-to-end metric under the name later issues refer to.
pub struct NamedSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may differ before
    /// `ledger compare` reports it; `None` for a metric that is printed and
    /// compared but never gated.
    pub bound: Option<f64>,
}

const fn named(name: &'static str, unit: &'static str, bound: f64) -> NamedSpec {
    NamedSpec {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
    }
}

/// Reported and compared, never gated: a time as this host measured it
/// moves 10-60% with the host's other tenants (see the README), and so does
/// everything the CAS arm does through the virtual disk.
const fn reported(name: &'static str, unit: &'static str) -> NamedSpec {
    NamedSpec {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

/// The end-to-end metrics by name. Each workload reports the ones that it
/// measures; `setup_s` and `run_s` are reported by all six. The sixteen
/// names the issue fixed are all here; the overheads beside them are the
/// other arms of the same workloads over the same baselines.
///
/// Bounds: the issue's tenth where ten runs on ten seeds spread (quartile
/// to quartile) by no more than a third of that in every study made (only
/// `steal_vs_static` did: 2.8-3.3%), a quarter otherwise, and none for what
/// this host cannot repeat.
pub const NAMED: &[NamedSpec] = &[
    // At nominal machine speed (divided by the yardstick taken beside it).
    named("setup_s", "s", 0.25),
    named("run_norm_s", "s", 0.25),
    reported("setup_raw_s", "s"),
    reported("yardstick_ms", "ms"),
    reported("yardstick_sweep_ms", "ms"),
    reported("yardstick_alu_ms", "ms"),
    reported("yardstick_team_ms", "ms"),
    reported("run_s", "s"),
    named("overhead_pluggable_seq", "ratio", 0.25),
    named("overhead_pluggable_smp2", "ratio", 0.25),
    named("overhead_pluggable_dist2", "ratio", 0.25),
    named("ckpt_overhead", "ratio", 0.25),
    reported("save_stall_ms_flat", "ms"),
    reported("save_stall_ms_delta", "ms"),
    reported("save_stall_ms_cas", "ms"),
    reported("restart_ms", "ms"),
    reported("reshape_handoff_ms", "ms"),
    reported("remote_save_ms", "ms"),
    reported("remote_resave_ms", "ms"),
    reported("remote_restore_ms", "ms"),
    NamedSpec {
        higher_is_better: true,
        ..named("steal_vs_static", "ratio", 0.10)
    },
    named("ckpt_overhead_idle", "ratio", 0.25),
    named("ckpt_overhead_delta", "ratio", 0.25),
    named("restart_overhead_chain", "ratio", 0.25),
    named("restart_overhead", "ratio", 0.25),
    named("restart_overhead_last", "ratio", 0.25),
    named("reshape_overhead", "ratio", 0.25),
    named("wire_overhead_save", "ratio", 0.25),
    named("wire_overhead_resave", "ratio", 0.25),
    named("wire_overhead_restore", "ratio", 0.25),
    named("wire_overhead_cycle", "ratio", 0.25),
    named("parallel_cost", "ratio", 0.25),
    // The CAS arm runs in the traced pass only. The bytes it stores are an
    // exact count, gated as the per-layer metric of the same name.
    reported("ckpt_overhead_cas", "ratio"),
    reported("store_bytes_ratio_cas", "ratio"),
];

pub fn named_spec(name: &str) -> Option<&'static NamedSpec> {
    NAMED.iter().find(|s| s.name == name)
}

/// A metric of the driver's contract: every workload reports every one.
pub struct SlotSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// What the driver sees as `end_to_end`. The contract wants one list that
/// every workload fills, so beside `setup_s` and `run_s` each workload
/// reports three overheads: an arm over its baseline arm, taken per round.
/// [`slot_source`] names the metric behind each on each workload. The
/// stalls in milliseconds are not here: this host cannot repeat them within
/// a quarter (see the README), the ratios it can.
pub const SLOTS: &[SlotSpec] = &[
    SlotSpec {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    SlotSpec {
        name: "run_norm_s",
        unit: "s",
        bound: 0.25,
    },
    SlotSpec {
        name: "overhead1",
        unit: "ratio",
        bound: 0.25,
    },
    SlotSpec {
        name: "overhead2",
        unit: "ratio",
        bound: 0.25,
    },
    SlotSpec {
        name: "overhead3",
        unit: "ratio",
        bound: 0.25,
    },
];

/// The named metric behind a driver slot on a workload. A slot reads lower
/// is better, so it carries the inverse of a metric where higher is better.
pub fn slot_source(workload: &str, slot: &str) -> Option<&'static str> {
    let overheads = match workload {
        "sor_compute" => [
            "overhead_pluggable_seq",
            "overhead_pluggable_smp2",
            "overhead_pluggable_dist2",
        ],
        // The restart from the delta chain is named and compared, but not
        // in a slot on `ckpt_sparse`: over ten seeds it read 1.98-2.19 in
        // one hour and 1.05-1.87 (two modes, spread 27%) in the next. The
        // idle module repeats within 3-12% on both workloads.
        "ckpt_sparse" => ["ckpt_overhead", "ckpt_overhead_delta", "ckpt_overhead_idle"],
        // Dense, the delta arm is the one arm whose overhead read 1.7 for
        // one hour and 2.5 for the next with nothing else moving: named and
        // reported, but the idle module takes its slot.
        "ckpt_dense" => [
            "ckpt_overhead",
            "ckpt_overhead_idle",
            "restart_overhead_chain",
        ],
        "recover_reshape" => [
            "restart_overhead_last",
            "restart_overhead",
            "reshape_overhead",
        ],
        "wire_ckpt" => [
            "wire_overhead_save",
            "wire_overhead_resave",
            "wire_overhead_cycle",
        ],
        "smc_task" => ["ckpt_overhead", "steal_vs_static", "parallel_cost"],
        _ => return None,
    };
    match slot {
        "setup_s" => Some("setup_s"),
        "run_norm_s" => Some("run_norm_s"),
        "overhead1" => Some(overheads[0]),
        "overhead2" => Some(overheads[1]),
        "overhead3" => Some(overheads[2]),
        _ => None,
    }
}

/// A per-layer metric: prefix = crate. No bound; a layer that a workload
/// does not exercise reads 0 there, which is the observation.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count that the inputs decide and the machine does not: two passes
    /// on one seed must read the same, and `ledger compare` checks it.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        higher_is_better: true,
        ..layer(name, unit)
    }
}

impl LayerSpec {
    const fn exact(self) -> LayerSpec {
        LayerSpec {
            exact: true,
            ..self
        }
    }
}

pub fn layer_spec(name: &str) -> Option<&'static LayerSpec> {
    LAYERS.iter().find(|s| s.name == name)
}

pub const LAYERS: &[LayerSpec] = &[
    layer("core.joinpoint_ns", "ns"),
    layer("core.grid_access_ns", "ns"),
    layer("core.grid_access_ratio", "ratio"),
    layer("core.region_forkjoin_us", "us"),
    layer("core.each_barrier_us", "us"),
    layer("core.safepoint_ns", "ns"),
    layer("core.dirty_scan_us", "us"),
    layer("core.dirty_ranges", "count").exact(),
    layer("core.dirty_bytes", "bytes").exact(),
    layer("dsm.halo_us", "us"),
    layer("dsm.gather_ms", "ms"),
    layer("dsm.msgs_per_step", "count").exact(),
    layer("dsm.bytes_per_step", "bytes").exact(),
    layer("ckpt.encode_crc_ms", "ms"),
    layer("ckpt.digest_ms", "ms"),
    layer_up("ckpt.digest_useful_ratio", "ratio").exact(),
    layer("ckpt.store_put_ms.flat", "ms"),
    layer("ckpt.store_put_ms.delta", "ms"),
    layer("ckpt.store_put_ms.cas", "ms"),
    layer("ckpt.store_put_ms_p90.flat", "ms"),
    layer("ckpt.store_put_ms_p90.delta", "ms"),
    layer("ckpt.store_put_ms_p90.cas", "ms"),
    layer("ckpt.save_stall_ms_p90.flat", "ms"),
    layer("ckpt.save_stall_ms_p90.delta", "ms"),
    layer("ckpt.save_stall_ms_p90.cas", "ms"),
    layer("ckpt.store_get_ms.flat", "ms"),
    layer("ckpt.store_get_ms.delta_chain", "ms"),
    layer("ckpt.store_get_ms.cas", "ms"),
    layer("ckpt.bytes_stored_per_save.flat", "bytes").exact(),
    layer("ckpt.bytes_stored_per_save.delta", "bytes").exact(),
    layer("ckpt.bytes_stored_per_save.cas", "bytes").exact(),
    layer("ckpt.chunks_written_per_save", "count").exact(),
    layer_up("ckpt.chunks_deduped_per_save", "count").exact(),
    layer("ckpt.files_touched_per_save.flat", "count").exact(),
    layer("ckpt.files_touched_per_save.cas", "count").exact(),
    layer("ckpt.gc_ms", "ms"),
    layer("ckpt.gc_objects_swept", "count").exact(),
    layer("ckpt.mem_put_ms", "ms"),
    layer("ckpt.mem_get_ms", "ms"),
    layer("ckpt.budget_coverage.flat", "ratio"),
    layer("ckpt.budget_coverage.delta", "ratio"),
    layer("ckpt.budget_coverage.cas", "ratio"),
    layer("net.connect_ms", "ms"),
    layer("net.ping_rtt_us", "us"),
    layer_up("net.stream_gbps", "GB/s"),
    layer("net.put_ms_p90", "ms"),
    layer("net.get_ms_p90", "ms"),
    layer("net.wire_chunks_shipped", "count").exact(),
    layer_up("net.wire_chunks_skipped", "count").exact(),
    layer("net.wire_bytes_per_state_byte", "ratio").exact(),
    layer("net.wire_overhead_ms.flat", "ms"),
    layer("net.wire_overhead_ms.cas", "ms"),
    layer("adapt.launch_ms.seq", "ms"),
    layer("adapt.launch_ms.smp2", "ms"),
    layer("adapt.launch_ms.dist2", "ms"),
    layer("adapt.launch_ms.task2", "ms"),
    layer("adapt.load_ms", "ms"),
    layer("adapt.replay_ms", "ms"),
    layer("adapt.replayed_points", "count").exact(),
    layer("adapt.resumed_at_point", "count").exact(),
    layer("adapt.restart_3n4_ms", "ms"),
    layer("adapt.handoff_ms", "ms"),
    layer("adapt.handoff_bytes", "bytes").exact(),
    layer("adapt.relaunch_ms", "ms"),
    layer("adapt.inplace_reshape_ms", "ms"),
    layer("task.task_overhead_ns", "ns"),
    layer("task.max_worker_share.static", "ratio"),
    layer("task.max_worker_share.steal", "ratio"),
    layer("task.quiesce_point_us", "us"),
    layer("task.frontier_bytes", "bytes").exact(),
    layer("task.frontier_save_ms", "ms"),
    layer_up("jgf.sor_mcells_per_s", "1/s"),
    layer_up("smc.particle_steps_per_s", "1/s"),
    // The named end-to-end metrics that have no slot in the driver's list,
    // as the traced pass measured them.
    layer("save_stall_ms_flat", "ms"),
    layer("save_stall_ms_delta", "ms"),
    layer("save_stall_ms_cas", "ms"),
    layer("ckpt_overhead_cas", "ratio"),
    layer("store_bytes_ratio_cas", "ratio").exact(),
    layer("restart_ms", "ms"),
    layer("reshape_handoff_ms", "ms"),
    layer("remote_save_ms", "ms"),
    layer("remote_resave_ms", "ms"),
    layer("remote_restore_ms", "ms"),
    layer_up("steal_vs_static", "ratio"),
    // The cost of looking: the reference arm under tracing, to hold
    // against the untraced `run_s`.
    layer("trace.run_s", "s"),
    layer("trace.spans", "count"),
];

#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    /// Present when the value is the median of samples.
    pub summary: Option<Summary>,
}

/// What one pass over one workload found.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub workload: String,
    pub traced: bool,
    pub rounds: usize,
    pub named: BTreeMap<&'static str, Measured>,
    pub layers: BTreeMap<&'static str, Measured>,
    /// Metrics this host cannot measure, with the reason.
    pub skipped: Vec<(String, String)>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// The first few failures, worded.
    pub failures: Vec<String>,
}

impl WorkloadReport {
    pub fn new(workload: &str, traced: bool) -> WorkloadReport {
        WorkloadReport {
            workload: workload.to_string(),
            traced,
            ..WorkloadReport::default()
        }
    }

    /// One operation (a launch, save, restore, reshape, put or get) was
    /// attempted; it failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops_attempted += 1;
        if !ok {
            self.ops_failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// `attempted` operations of one kind at once (the saves of one launch),
    /// `failed` of them failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.ops_attempted += attempted;
        self.ops_failed += failed.min(attempted);
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Count an operation that returned a `Result`; `None` when it failed.
    pub fn attempt<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count an operation whose output is checked too: it failed when it
    /// returned an error or when `right` rejects what it returned.
    pub fn attempt_if<T>(
        &mut self,
        what: &str,
        result: Result<T, String>,
        right: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        let checked = result.and_then(|v| {
            if right(&v) {
                Ok(v)
            } else {
                Err("the output differs from its reference".to_string())
            }
        });
        self.attempt(what, checked)
    }

    fn known_named(name: &str) -> &'static str {
        named_spec(name)
            .unwrap_or_else(|| panic!("{name} is not a named metric"))
            .name
    }

    fn known_layer(name: &str) -> &'static str {
        layer_spec(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .name
    }

    /// A named metric as the median of `samples`.
    pub fn named_median(&mut self, name: &str, samples: &[f64]) {
        let summary = summarize(samples);
        self.named.insert(
            Self::known_named(name),
            Measured {
                value: summary.median,
                summary: Some(summary),
            },
        );
    }

    pub fn named_value(&mut self, name: &str, value: f64) {
        self.named.insert(
            Self::known_named(name),
            Measured {
                value,
                summary: None,
            },
        );
    }

    pub fn layer_median(&mut self, name: &str, samples: &[f64]) {
        let summary = summarize(samples);
        self.layers.insert(
            Self::known_layer(name),
            Measured {
                value: summary.median,
                summary: Some(summary),
            },
        );
    }

    pub fn layer_value(&mut self, name: &str, value: f64) {
        self.layers.insert(
            Self::known_layer(name),
            Measured {
                value,
                summary: None,
            },
        );
    }

    pub fn skip(&mut self, metric: &str, why: &str) {
        self.skipped.push((metric.to_string(), why.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.ops_failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.named.get(name).map(|m| m.value)
    }

    /// A per-layer metric of the traced pass. The named metrics that have no
    /// slot in the driver's list are per-layer metrics too, under their own
    /// names, as this pass measured them.
    fn layer(&self, name: &str) -> Option<&Measured> {
        self.layers.get(name).or_else(|| self.named.get(name))
    }

    /// The last line the driver reads: every slot with `--trace 0`, every
    /// per-layer metric with `--trace 1`. `Err` names what is missing.
    pub fn driver_line(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        if self.traced {
            for spec in LAYERS {
                let value = self.layer(spec.name).map_or(0.0, |m| m.value);
                let value = if value.is_finite() { value } else { 0.0 };
                metrics.push((spec.name, measured_json(value, spec.unit)));
            }
        } else {
            for slot in SLOTS {
                let source = slot_source(&self.workload, slot.name)
                    .ok_or_else(|| format!("no source for {} on {}", slot.name, self.workload))?;
                let inverted = named_spec(source).is_some_and(|s| s.higher_is_better);
                let value = self
                    .value(source)
                    .map(|v| if inverted { 1.0 / v } else { v })
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| {
                        let why = self
                            .skipped
                            .iter()
                            .find(|(m, _)| m == source)
                            .map_or("not measured", |(_, why)| why.as_str());
                        format!("{} ({source}) has no value: {why}", slot.name)
                    })?;
                metrics.push((slot.name, measured_json(value, slot.unit)));
            }
        }
        Ok(obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.ops_attempted.max(1))),
            ("failed", Json::from(self.ops_failed)),
            ("metrics", obj(metrics)),
        ])
        .compact())
    }

    pub fn to_json(&self) -> Json {
        let metric = |name: &str, unit: &str, m: &Measured| {
            let mut pairs = vec![
                ("name".to_string(), Json::from(name)),
                ("unit".to_string(), Json::from(unit)),
                ("value".to_string(), Json::from(m.value)),
            ];
            if let Some(s) = &m.summary {
                pairs.push(("samples".into(), Json::from(s.samples)));
                pairs.push(("q1".into(), Json::from(s.q1)));
                pairs.push(("q3".into(), Json::from(s.q3)));
                if let Some((p, v)) = s.tail {
                    pairs.push(("tail_percentile".into(), Json::from(p)));
                    pairs.push(("tail_value".into(), Json::from(v)));
                }
            }
            Json::Obj(pairs)
        };
        let named = self
            .named
            .iter()
            .map(|(name, m)| metric(name, named_spec(name).map_or("", |s| s.unit), m))
            .collect();
        let layers = LAYERS
            .iter()
            .filter(|_| self.traced)
            .filter_map(|spec| Some(metric(spec.name, spec.unit, self.layer(spec.name)?)))
            .collect();
        obj([
            ("workload", Json::from(self.workload.as_str())),
            ("traced", Json::from(self.traced)),
            ("rounds", Json::from(self.rounds)),
            ("ops_attempted", Json::from(self.ops_attempted)),
            ("ops_failed", Json::from(self.ops_failed)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            (
                "skipped",
                Json::Arr(
                    self.skipped
                        .iter()
                        .map(|(m, why)| {
                            obj([
                                ("metric", Json::from(m.as_str())),
                                ("why", Json::from(why.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", Json::Arr(named)),
            ("per_layer", Json::Arr(layers)),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        let pass = if self.traced { "traced" } else { "untraced" };
        writeln!(
            out,
            "== {} ({pass}, {} rounds): ops_attempted {} ops_failed {}",
            self.workload, self.rounds, self.ops_attempted, self.ops_failed
        )?;
        let line =
            |out: &mut dyn std::io::Write, name: &str, unit: &str, m: &Measured| match &m.summary {
                Some(s) => {
                    let tail = s
                        .tail
                        .map_or(String::new(), |(p, v)| format!(" p{p} {v:.4}"));
                    writeln!(
                        out,
                        "  {name:<34} {:>14.6} {unit:<6} n={} q1 {:.4} q3 {:.4}{tail}",
                        m.value, s.samples, s.q1, s.q3
                    )
                }
                None => writeln!(out, "  {name:<34} {:>14.6} {unit}", m.value),
            };
        for (name, m) in &self.named {
            line(out, name, named_spec(name).map_or("", |s| s.unit), m)?;
        }
        for spec in LAYERS {
            if let Some(m) = self.layers.get(spec.name) {
                line(out, spec.name, spec.unit, m)?;
            }
        }
        for (metric, why) in &self.skipped {
            writeln!(out, "  {metric:<34} skipped: {why}")?;
        }
        for failure in &self.failures {
            writeln!(out, "  FAILED: {failure}")?;
        }
        Ok(())
    }
}

fn measured_json(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

/// Default of `--seconds`, and `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 18;

/// `BENCHMARK.json` as the tables above define it.
pub fn manifest() -> Json {
    let direction = |higher: bool| Json::from(if higher { "higher" } else { "lower" });
    obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "ledger/Cargo.toml",
                    "--",
                ]
                .map(Json::from)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::from("ledger")])),
        ("run_seconds", Json::from(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        obj([("name", Json::from(*name)), ("why", Json::from(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                SLOTS
                    .iter()
                    .map(|s| {
                        obj([
                            ("name", Json::from(s.name)),
                            ("unit", Json::from(s.unit)),
                            ("better", direction(false)),
                            ("bound", Json::from(s.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                LAYERS
                    .iter()
                    .map(|s| {
                        obj([
                            ("name", Json::from(s.name)),
                            ("unit", Json::from(s.unit)),
                            ("better", direction(s.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&SLOTS.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(*name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {} chars",
                why.len()
            );
        }
        for s in SLOTS {
            assert!(valid_name(s.name) && seen.insert(s.name), "{}", s.name);
            assert!(valid_unit(s.unit) && s.bound > 0.0 && s.bound <= 0.25);
        }
        for s in LAYERS {
            assert!(valid_name(s.name) && seen.insert(s.name), "{}", s.name);
            assert!(valid_unit(s.unit), "{}: {}", s.name, s.unit);
        }
        assert!(SLOTS.iter().any(|s| s.name == "setup_s" && s.unit == "s"));
        assert!(manifest().compact().len() <= 64 * 1024);
    }

    #[test]
    fn every_slot_has_a_named_source_with_the_slot_unit_on_every_workload() {
        for (workload, _) in WORKLOADS {
            for slot in SLOTS {
                let source = slot_source(workload, slot.name).expect("source");
                let spec = named_spec(source).expect("named");
                assert_eq!(spec.unit, slot.unit, "{workload} {}", slot.name);
            }
        }
        assert!(slot_source("nope", "run_norm_s").is_none());
    }

    #[test]
    fn benchmark_json_on_disk_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        // Not `assert_eq!`: the two sides are some 600 lines each.
        assert!(on_disk == manifest(), "regenerate with `ledger manifest`");
    }

    #[test]
    fn driver_line_has_every_slot_or_names_what_is_missing() {
        let mut r = WorkloadReport::new("smc_task", false);
        r.op(true, String::new);
        for name in ["setup_s", "run_norm_s", "ckpt_overhead", "steal_vs_static"] {
            r.named_median(name, &[1.0, 2.0, 4.0]);
        }
        r.skip("parallel_cost", "one core");
        let missing = r.driver_line().unwrap_err();
        assert!(
            missing.contains("overhead3") && missing.contains("one core"),
            "{missing}"
        );
        r.named_value("parallel_cost", 2.5);
        let line = Json::parse(&r.driver_line().unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(1.0));
        let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), SLOTS.len());
        let slot = |name| line.get("metrics").unwrap().get(name).unwrap();
        assert_eq!(
            slot("overhead3").get("value").and_then(Json::as_f64),
            Some(2.5)
        );
        assert_eq!(
            slot("overhead3").get("unit").and_then(Json::as_str),
            Some("ratio")
        );
        // Higher is better for `steal_vs_static`: its slot carries 1 / 2.0.
        assert_eq!(
            slot("overhead2").get("value").and_then(Json::as_f64),
            Some(0.5)
        );
    }

    #[test]
    fn traced_line_has_every_layer_and_zero_where_untouched() {
        let mut r = WorkloadReport::new("wire_ckpt", true);
        r.layer_value("net.ping_rtt_us", 41.5);
        r.op(false, || "mismatch".into());
        let line = Json::parse(&r.driver_line().unwrap()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), LAYERS.len());
        let value = |name| {
            metrics
                .get(name)
                .unwrap()
                .get("value")
                .and_then(Json::as_f64)
        };
        assert_eq!(value("net.ping_rtt_us"), Some(41.5));
        assert_eq!(value("task.task_overhead_ns"), Some(0.0));
    }
}
