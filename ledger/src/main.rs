//! `ledger`: the repo's benchmark. One end-to-end and per-layer ledger for
//! pluggable runs, checkpoints, restart, reshape and the wire.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one pass over one workload; the last line of standard output is the
//!     result object the driver reads (BENCHMARK.json names this form)
//! ledger run [--quick] [--seed <n>] [--seconds <s>] [--workload <name>]...
//!            [--out <file>] [--trace <file>]
//!     every workload untraced, and again traced when --trace is given
//! ledger compare <a.json> <b.json>
//!     do two reports of `ledger run` agree within the bounds?
//! ledger manifest
//!     print BENCHMARK.json as the tables in report.rs define it
//! ```

mod compare;
mod json;
mod layers;
mod machine;
mod report;
mod scratch;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use json::{obj, Json};
use report::{WorkloadReport, DEFAULT_SECONDS, WORKLOADS};
use scratch::Scratch;
use trace::Tracer;
use workloads::Env;

const DEFAULT_SEED: u64 = 20_110_913;

/// What the benchmark leaves out, printed by every full run.
const OUT_OF_SCOPE: [(&str, &str); 2] = [
    (
        "mttr_multi_process",
        "needs 3 or more OS processes and a throttled wire; not repeatable within a tenth on 2 cores",
    ),
    (
        "speedup_4way_and_wider",
        "the host has 2 cores; a 4-way cell would record time slicing",
    ),
];

#[derive(Debug, Default)]
struct Args {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<String>,
    out: Option<String>,
    quick: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !report::workload_known(&name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        known.join(", ")
                    ));
                }
                parsed.workloads.push(name);
            }
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => parsed.trace = Some(value("--trace")?),
            "--out" => parsed.out = Some(value("--out")?),
            "--quick" => parsed.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

/// One pass over one workload. A panic inside a layer is reported as a
/// failed pass; the scratch root is removed by the caller either way.
fn pass(workload: &str, args: &Args, scratch: &Scratch, tracer: &Tracer) -> WorkloadReport {
    let traced = tracer.enabled();
    let env = Env {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS as f64),
        quick: args.quick,
        cores: machine::available_parallelism(),
        scratch,
        tracer,
    };
    let spans_before = tracer.span_count();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tracer
            .time("ledger", workload, || workloads::run(workload, &env))
            .0
            .expect("the workload name was checked")
    }));
    let mut report = run.unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic without a message");
        let mut r = WorkloadReport::new(workload, traced);
        r.op(false, || format!("panicked: {what}"));
        r
    });
    if traced {
        let spans = tracer.span_count() - spans_before;
        report.layer_value("trace.spans", spans as f64);
    }
    report
}

/// The form the driver calls.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let [workload] = args.workloads.as_slice() else {
        return Err("give exactly one --workload".into());
    };
    let traced = match args.trace.as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => {
            return Err(format!(
                "--trace {other:?}: 0 or 1 (a file goes with `run`)"
            ))
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    println!("machine {}", machine::fingerprint(seed).compact());
    let scratch = Scratch::create().map_err(|e| format!("scratch root: {e}"))?;
    let tracer = Tracer::new(traced);
    let report = pass(workload, args, &scratch, &tracer);
    drop(scratch);
    let mut out = std::io::stdout().lock();
    report.print(&mut out).map_err(|e| e.to_string())?;
    writeln!(out, "loadavg_1m_end {}", machine::loadavg()).map_err(|e| e.to_string())?;
    let line = report.driver_line()?;
    writeln!(out, "{line}").map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

/// Traced `run_s` over untraced `run_s`, as a percentage on top.
fn trace_overhead_pct(untraced: &WorkloadReport, traced: &WorkloadReport) -> Option<f64> {
    let (plain, looked_at) = (untraced.value("run_s")?, traced.value("run_s")?);
    (plain > 0.0).then(|| (looked_at / plain - 1.0) * 100.0)
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut fingerprint = machine::fingerprint(seed);
    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "machine {}", fingerprint.compact()).map_err(io)?;
    if args.quick {
        writeln!(
            out,
            "QUICK pass: 1/8 of the cells, 1/4 of the steps, 3 rounds; these numbers compare with nothing"
        )
        .map_err(io)?;
    }
    let names: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|(w, _)| *w).collect()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };

    let scratch = Scratch::create().map_err(|e| format!("scratch root: {e}"))?;
    let untraced_tracer = Tracer::new(false);
    let tracer = Tracer::new(true);
    let mut failed = 0;
    let mut entries = Vec::new();
    for name in names {
        let untraced = pass(name, args, &scratch, &untraced_tracer);
        untraced.print(&mut out).map_err(io)?;
        failed += untraced.ops_failed;
        let mut entry = vec![
            ("workload".to_string(), Json::from(name)),
            ("untraced".to_string(), untraced.to_json()),
        ];
        if args.trace.is_some() {
            let first_span = tracer.span_count();
            let traced = pass(name, args, &scratch, &tracer);
            traced.print(&mut out).map_err(io)?;
            failed += traced.ops_failed;
            let own = trace::layer_self_ms(&tracer.snapshot(), first_span);
            let shares: Vec<String> = own.iter().map(|(l, ms)| format!("{l} {ms:.1}")).collect();
            writeln!(out, "  self time by layer, ms: {}", shares.join(" | ")).map_err(io)?;
            let overhead = trace_overhead_pct(&untraced, &traced);
            match overhead {
                Some(pct) => writeln!(out, "  {:<34} {pct:>14.2} %", "trace_overhead_pct"),
                None => writeln!(
                    out,
                    "  {:<34} skipped: run_s was not measured",
                    "trace_overhead_pct"
                ),
            }
            .map_err(io)?;
            entry.push(("traced".to_string(), traced.to_json()));
            entry.push((
                "layer_self_ms".to_string(),
                obj(own.iter().map(|(l, ms)| (*l, Json::from(*ms)))),
            ));
            entry.push((
                "trace_overhead_pct".to_string(),
                overhead.map_or(Json::Null, Json::from),
            ));
        }
        entries.push(Json::Obj(entry));
    }
    drop(scratch);
    for (what, why) in OUT_OF_SCOPE {
        writeln!(out, "  {what:<34} skipped: {why}").map_err(io)?;
    }

    if let Json::Obj(pairs) = &mut fingerprint {
        pairs.push(("loadavg_1m_end".into(), Json::from(machine::loadavg())));
    }
    writeln!(out, "loadavg_1m_end {}", machine::loadavg()).map_err(io)?;
    if let Some(path) = &args.trace {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        tracer
            .write_jsonl(&mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        let doc = obj([
            ("schema", Json::from("ppar-ledger/1")),
            ("machine", fingerprint),
            ("quick", Json::from(args.quick)),
            (
                "seconds",
                Json::from(args.seconds.unwrap_or(DEFAULT_SECONDS as f64)),
            ),
            (
                "out_of_scope",
                Json::Arr(
                    OUT_OF_SCOPE
                        .iter()
                        .map(|(what, why)| {
                            obj([("what", Json::from(*what)), ("why", Json::from(*why))])
                        })
                        .collect(),
                ),
            ),
            ("workloads", Json::Arr(entries)),
        ]);
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    writeln!(out, "ops_failed {failed}").map_err(io)?;
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two report files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    compare::print(&rows, &mut std::io::stdout().lock()).map_err(|e| e.to_string())?;
    Ok(if rows.iter().any(|r| r.exceeds) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "manifest")) => (c, &argv[1..]),
        _ => ("driver", &argv[..]),
    };
    let outcome = parse_args(rest).and_then(|args| match command {
        "run" => run_all(&args),
        "compare" => compare_files(&args),
        "manifest" if rest.is_empty() => {
            print!("{}", report::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        "manifest" => Err("manifest takes no arguments".into()),
        _ => driver(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        eprintln!("usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        eprintln!("       ledger run [--quick] [--seed <n>] [--seconds <s>] [--workload <name>]... [--out <file>] [--trace <file>]");
        eprintln!("       ledger compare <a.json> <b.json>");
        eprintln!("       ledger manifest");
        ExitCode::from(2)
    })
}
