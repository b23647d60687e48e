//! Spans around the calls the ledger makes into each layer.
//!
//! The benchmark measures the layers from outside, so a span covers one
//! call into a workspace crate (or one stage of a pipeline re-enacted
//! through public functions). Spans live in memory until the run ends.
//! With tracing off [`Tracer::time`] still times the call, and records
//! nothing, so the untraced and the traced pass run the same code.

use std::cell::RefCell;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{obj, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open on this thread when this one started.
    pub parent: Option<u32>,
    /// Id of the root span of the operation; spans of one operation share it.
    pub op: u32,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A span of [`Tracer::time`] while its closure runs.
struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.id);
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: `(id, op)`.
    static OPEN: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` under a span `layer`/`name`; returns its result and its
    /// wall-clock in seconds.
    pub fn time<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        // Closed on drop, so a panic in `f` that the caller catches does
        // not leave the span open as the parent of everything after it.
        let guard = self.enabled.then(|| OpenSpan {
            tracer: self,
            id: self.open(layer, name),
        });
        let start = Instant::now();
        let result = f();
        let secs = start.elapsed().as_secs_f64();
        drop(guard);
        (result, secs)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, layer: &'static str, name: &str) -> u32 {
        let mut spans = self.spans.lock().expect("no span holder panics");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let (parent, op) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let top = open.last().copied();
            let op = top.map_or(id, |(_, op)| op);
            open.push((id, op));
            (top.map(|(parent, _)| parent), op)
        });
        let start_ns = self.now_ns();
        spans.push(Span {
            id,
            parent,
            op,
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        OPEN.with(|open| {
            let popped = open.borrow_mut().pop();
            debug_assert_eq!(popped.map(|(top, _)| top), Some(id), "spans close in order");
        });
        self.spans.lock().expect("no span holder panics")[id as usize].end_ns = end_ns;
    }

    /// Record a span measured elsewhere (a stall stamped inside base code
    /// on another thread): a child of the span open on this thread.
    pub fn record(&self, layer: &'static str, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut spans = self.spans.lock().expect("no span holder panics");
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let top = OPEN.with(|open| open.borrow().last().copied());
        spans.push(Span {
            id,
            parent: top.map(|(parent, _)| parent),
            op: top.map_or(id, |(_, op)| op),
            layer,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("no span holder panics").len()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// One JSON object per line, in the order the spans were opened.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for s in self.snapshot() {
            let line = obj([
                ("id", Json::from(u64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                ),
                ("op", Json::from(u64::from(s.op))),
                ("layer", Json::from(s.layer)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

/// Self time of every span, indexed by span id: its duration minus the part
/// of its interval that its direct children cover (overlapping children
/// count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            let p = &spans[parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer in milliseconds over the spans from id `from` on:
/// where a traced pass spent its time, each nanosecond counted in exactly
/// one span. Layer `ledger` is the harness itself.
pub fn layer_self_ms(spans: &[Span], from: usize) -> std::collections::BTreeMap<&'static str, f64> {
    let mut by_layer = std::collections::BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)).skip(from) {
        *by_layer.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer: "t",
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps span 1 on 30..40: the union 10..60 covers 50.
            span(2, Some(0), 30, 60),
            // A grandchild takes from its parent only.
            span(3, Some(2), 35, 45),
            // Sticks out of the parent: clipped to 90..100.
            span(4, Some(0), 90, 130),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 20, 10, 40]);
        let total: u64 = spans.iter().map(Span::duration_ns).sum();
        assert_eq!(total, 100 + 30 + 30 + 10 + 40);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(layer_self_ms(&spans, 0)["t"], 140.0 / 1e6));
        assert!(close(layer_self_ms(&spans, 3)["t"], 50.0 / 1e6));
    }

    #[test]
    fn nesting_sets_parent_and_op() {
        let t = Tracer::new(true);
        let ((), outer) = t.time("a", "outer", || {
            t.time("b", "inner", || ());
            let now = Instant::now();
            t.record("c", "stamped", now, now);
        });
        t.time("a", "next", || ());
        assert!(outer >= 0.0);
        let spans = t.snapshot();
        let view: Vec<_> = spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent, s.op))
            .collect();
        assert_eq!(
            view,
            vec![
                ("outer", None, 0),
                ("inner", Some(0), 0),
                ("stamped", Some(0), 0),
                ("next", None, 3),
            ]
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn a_panic_under_a_span_closes_it() {
        let t = Tracer::new(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.time("a", "outer", || {
                t.time("b", "inner", || panic!("on purpose"))
            })
        }));
        assert!(caught.is_err());
        t.time("a", "next", || ());
        let spans = t.snapshot();
        assert_eq!((spans[2].parent, spans[2].op), (None, 2));
        assert!(spans[0].end_ns >= spans[1].end_ns && spans[1].end_ns >= spans[1].start_ns);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("a", "x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        t.record("a", "y", Instant::now(), Instant::now());
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let t = Tracer::new(true);
        t.time("ckpt", "store_put.flat", || {
            t.time("core", "dirty_scan", || ())
        });
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = Json::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(child.get("layer").and_then(Json::as_str), Some("core"));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
