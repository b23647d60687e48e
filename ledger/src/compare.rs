//! `ledger compare a.json b.json`: do two reports of `ledger run` agree
//! within the bounds the benchmark fixed?
//!
//! Gated: the end-to-end metrics of the untraced pass that have a bound,
//! and, when both reports hold a traced pass on the same seed, its exact
//! counts, which must be identical. Everything else is printed beside them.

use crate::json::Json;
use crate::report::{layer_spec, named_spec};

/// One workload × metric present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`.
    pub relative: f64,
    /// `None`: shown, not gated.
    pub bound: Option<f64>,
    /// Is `b` the worse side, given the metric's direction?
    pub b_worse: bool,
    pub exceeds: bool,
}

impl Row {
    fn new(
        workload: &str,
        (metric, unit, higher_is_better): (&str, &str, bool),
        (a, b): (f64, f64),
        bound: Option<f64>,
    ) -> Row {
        let relative = if a == 0.0 && b != 0.0 {
            f64::INFINITY
        } else if a == b {
            0.0
        } else {
            (b - a) / a
        };
        Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            a,
            b,
            relative,
            bound,
            b_worse: if higher_is_better { b < a } else { b > a },
            // A NaN difference (a side that measured nothing) exceeds.
            exceeds: bound.is_some_and(|bound| relative.is_nan() || relative.abs() > bound),
        }
    }
}

/// `(name, value)` of the metrics under `pass.list`; `None` when the
/// workload has no such pass.
fn metrics_of<'a>(workload: &'a Json, pass: &str, list: &str) -> Option<Vec<(&'a str, f64)>> {
    let metrics = workload.get(pass)?.get(list)?.as_array()?;
    Some(
        metrics
            .iter()
            .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("value")?.as_f64()?)))
            .collect(),
    )
}

/// The metrics both sides hold, paired in the order of `a`. A metric that
/// only one side measured is an error: the two runs did not do the same work.
fn paired<'a>(
    workload: &str,
    a: &[(&'a str, f64)],
    b: &[(&'a str, f64)],
) -> Result<Vec<(&'a str, f64, f64)>, String> {
    if let Some((extra, _)) = b.iter().find(|(m, _)| !a.iter().any(|(n, _)| n == m)) {
        return Err(format!(
            "{workload}: {extra} is missing from the first report"
        ));
    }
    a.iter()
        .map(|(metric, va)| {
            let vb = b
                .iter()
                .find(|(m, _)| m == metric)
                .ok_or_else(|| format!("{workload}: {metric} is missing from the second report"))?;
            Ok((*metric, *va, vb.1))
        })
        .collect()
}

fn workloads_of(report: &Json) -> Result<Vec<(&str, &Json)>, String> {
    report
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("not a ledger report: no `workloads` array")?
        .iter()
        .map(|w| {
            let name = w
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("a workload without a name")?;
            Ok((name, w))
        })
        .collect()
}

fn seed_of(report: &Json) -> Option<&str> {
    report.get("machine")?.get("seed")?.as_str()
}

/// Every workload × metric of the two reports, in the order of `a`.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (wa, wb) = (workloads_of(a)?, workloads_of(b)?);
    if wb.len() != wa.len() {
        return Err("the reports hold different workloads".into());
    }
    // Counts are fixed by the inputs, and the inputs by the seed.
    let same_seed = seed_of(a).is_some() && seed_of(a) == seed_of(b);
    let mut rows = Vec::new();
    for (name, left) in &wa {
        let (_, right) = wb
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("workload {name} is missing from the second report"))?;
        let untraced = |w| metrics_of(w, "untraced", "end_to_end").unwrap_or_default();
        for (metric, va, vb) in paired(name, &untraced(left), &untraced(right))? {
            let spec = named_spec(metric).ok_or_else(|| format!("unknown metric {metric}"))?;
            let what = (metric, spec.unit, spec.higher_is_better);
            rows.push(Row::new(name, what, (va, vb), spec.bound));
        }
        let traced = |w| metrics_of(w, "traced", "per_layer");
        let (la, lb) = match (traced(left), traced(right)) {
            (Some(la), Some(lb)) => (la, lb),
            (None, None) => continue,
            _ => return Err(format!("{name}: only one report has a traced pass")),
        };
        for (metric, va, vb) in paired(name, &la, &lb)? {
            let spec = layer_spec(metric).ok_or_else(|| format!("unknown metric {metric}"))?;
            if spec.exact {
                let what = (metric, spec.unit, spec.higher_is_better);
                rows.push(Row::new(name, what, (va, vb), same_seed.then_some(0.0)));
            }
        }
    }
    Ok(rows)
}

pub fn print(rows: &[Row], out: &mut dyn std::io::Write) -> std::io::Result<()> {
    writeln!(
        out,
        "{:<16} {:<40} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "diff", "bound"
    )?;
    for row in rows {
        let verdict = match (row.exceeds, row.b_worse) {
            (false, _) => "",
            (true, true) => "  EXCEEDS: b is worse",
            (true, false) => "  EXCEEDS: b is better",
        };
        let bound = match row.bound {
            Some(0.0) => "exact".to_string(),
            Some(bound) => format!("{:.0}%", bound * 100.0),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "{:<16} {:<40} {:>14.6} {:>14.6} {:>+8.1}% {bound:>7}{verdict}",
            row.workload,
            format!("{} [{}]", row.metric, row.unit),
            row.a,
            row.b,
            row.relative * 100.0,
        )?;
    }
    let gated = rows.iter().filter(|r| r.bound.is_some()).count();
    let over = rows.iter().filter(|r| r.exceeds).count();
    writeln!(
        out,
        "{over} of {gated} gated differences exceed their bound"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;
    use crate::report::WorkloadReport;

    /// A report of one workload: an untraced pass, and a traced one when
    /// `wire_chunks` is given.
    fn report(seed: u64, overhead: f64, run_s: f64, wire_chunks: Option<f64>) -> Json {
        let mut w = WorkloadReport::new("smc_task", false);
        w.named_value("ckpt_overhead", overhead);
        w.named_value("steal_vs_static", 2.0);
        w.named_value("run_s", run_s);
        let mut entry = vec![
            ("workload".to_string(), Json::from("smc_task")),
            ("untraced".to_string(), w.to_json()),
        ];
        if let Some(chunks) = wire_chunks {
            let mut t = WorkloadReport::new("smc_task", true);
            t.layer_value("net.wire_chunks_shipped", chunks);
            t.layer_value("net.ping_rtt_us", 100.0 * chunks);
            entry.push(("traced".to_string(), t.to_json()));
        }
        obj([
            ("machine", obj([("seed", Json::from(seed.to_string()))])),
            ("workloads", Json::Arr(vec![Json::Obj(entry)])),
        ])
    }

    fn by<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn within_bounds_agrees_and_times_as_measured_are_never_gated() {
        let rows = compare(&report(1, 1.0, 1.0, None), &report(1, 1.2, 3.0, None)).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| !r.exceeds), "{rows:?}");
        assert!((by(&rows, "ckpt_overhead").relative - 0.2).abs() < 1e-12);
        let run_s = by(&rows, "run_s");
        assert!(run_s.b_worse && run_s.bound.is_none(), "shown, not gated");
    }

    #[test]
    fn beyond_the_bound_exceeds_in_either_direction() {
        let rows = compare(&report(1, 1.0, 1.0, None), &report(1, 0.5, 1.0, None)).unwrap();
        let row = by(&rows, "ckpt_overhead");
        assert!(row.exceeds && !row.b_worse);
        assert!(!by(&rows, "steal_vs_static").exceeds);
        let mut text = Vec::new();
        print(&rows, &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert!(
            text.contains("EXCEEDS: b is better") && text.contains("1 of 2 gated"),
            "{text}"
        );
    }

    #[test]
    fn exact_counts_of_the_traced_pass_must_be_identical_on_one_seed() {
        let a = report(7, 1.0, 1.0, Some(105.0));
        let rows = compare(&a, &a).unwrap();
        let count = by(&rows, "net.wire_chunks_shipped");
        assert_eq!((count.bound, count.exceeds), (Some(0.0), false));
        assert!(
            rows.iter().all(|r| r.metric != "net.ping_rtt_us"),
            "a per-layer timing is not compared"
        );
        let rows = compare(&a, &report(7, 1.0, 1.0, Some(106.0))).unwrap();
        assert!(by(&rows, "net.wire_chunks_shipped").exceeds);
        // Another seed makes other inputs: the count is shown, not gated.
        let rows = compare(&a, &report(8, 1.0, 1.0, Some(106.0))).unwrap();
        assert_eq!(by(&rows, "net.wire_chunks_shipped").bound, None);
    }

    #[test]
    fn reports_that_did_different_work_do_not_compare() {
        let mut less = WorkloadReport::new("smc_task", false);
        less.named_value("run_s", 1.0);
        let less = obj([(
            "workloads",
            Json::Arr(vec![obj([
                ("workload", Json::from("smc_task")),
                ("untraced", less.to_json()),
            ])]),
        )]);
        let full = report(1, 1.0, 1.0, None);
        let e = compare(&full, &less).unwrap_err();
        assert!(e.contains("missing from the second report"), "{e}");
        let e = compare(&less, &full).unwrap_err();
        assert!(e.contains("missing from the first report"), "{e}");
        let e = compare(&full, &report(1, 1.0, 1.0, Some(1.0))).unwrap_err();
        assert!(e.contains("only one report has a traced pass"), "{e}");
        assert!(compare(&Json::Null, &full).is_err());
    }
}
