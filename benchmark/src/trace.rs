//! Outside-in span recorder: the harness wraps each call into a layer's
//! public API in a span, keeps spans in memory and writes them out when
//! the run ends. Spans of one operation share its `op` number.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span ids of client thread `t` start at `t * THREAD_ID_STRIDE + 1`, so
/// per-thread recorders never collide and need no shared counter.
const THREAD_ID_STRIDE: u32 = 1 << 28;

/// One recorded interval. `parent == 0` marks a root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count taken at a span boundary (work done by operation `op`).
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    pub op: u64,
    pub name: &'static str,
    pub value: f64,
}

/// Single-threaded recorder; concurrent clients each own one (sharing the
/// epoch) and [`Tracer::merge`] them afterwards.
pub struct Tracer {
    /// `None` records nothing: `span` just runs its closure, so one code
    /// path serves the traced and the untraced run.
    epoch: Option<Instant>,
    next_id: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer::for_thread(epoch, 0)
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            next_id: 1,
            open: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn for_thread(epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            next_id: thread * THREAD_ID_STRIDE + 1,
            open: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// currently open on this recorder.
    pub fn span<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn count(&mut self, op: u64, name: &'static str, value: f64) {
        if self.epoch.is_some() {
            self.counters.push(Counter { op, name, value });
        }
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.counters.extend(other.counters);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of every count recorded under `name`.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// One JSON object per line: spans first, then counters.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counters {
            writeln!(
                out,
                "{{\"op\":{},\"counter\":\"{}\",\"value\":{}}}",
                c.op, c.name, c.value
            )?;
        }
        out.flush()
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct child spans.
    pub self_ns: u64,
}

impl NameStats {
    pub fn mean_ms(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e6, self.count as f64)
    }
}

/// Per-name totals and self times. Children of one span never overlap
/// (each recorder is single-threaded), so self time is duration minus
/// the sum of direct children.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let stats = out.entry(s.name).or_default();
        stats.count += 1;
        stats.total_ns += s.duration_ns();
        stats.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(3, 2, "leaf", 20, 30),
            span(2, 1, "mid", 10, 60),
            span(4, 1, "mid", 60, 70),
            span(1, 0, "root", 0, 100),
        ];
        let by_name = summarize(&spans);
        assert_eq!(
            by_name["root"],
            NameStats {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            by_name["mid"],
            NameStats {
                count: 2,
                total_ns: 60,
                self_ns: 50
            }
        );
        assert_eq!(by_name["leaf"].self_ns, 10);
        assert_eq!(durations_ms(&spans, "mid"), vec![50.0 / 1e6, 10.0 / 1e6]);
    }

    #[test]
    fn recorder_nests_spans_and_threads_do_not_collide() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span(1, "outer", |t| {
            t.span(1, "inner", |_| ());
            t.count(1, "work", 3.0);
        });
        let mut b = Tracer::for_thread(epoch, 1);
        b.span(2, "outer", |_| ());
        a.merge(b);
        assert_eq!(a.counter_total("work"), 3.0);
        assert_eq!(a.counter_total("absent"), 0.0);

        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let mut ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3, "ids are unique across recorders");
    }

    #[test]
    fn a_recorder_that_is_off_runs_closures_and_keeps_nothing() {
        let mut t = Tracer::off();
        let out = t.span(1, "outer", |t| {
            t.count(1, "work", 1.0);
            t.span(1, "inner", |_| 42)
        });
        assert_eq!(out, 42);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter_total("work"), 0.0);
    }

    #[test]
    fn jsonl_has_one_object_per_span_and_counter() {
        let mut t = Tracer::new(Instant::now());
        t.span(5, "run", |t| t.count(5, "rows", 2.0));
        let scratch = crate::inputs::Scratch::new().unwrap();
        let path = scratch.clean_dir("trace").unwrap().join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"id\":1,\"parent\":0,\"op\":5,\"name\":\"run\",\"start_ns\":")
        );
        assert_eq!(lines[1], "{\"op\":5,\"counter\":\"rows\",\"value\":2}");
    }
}
