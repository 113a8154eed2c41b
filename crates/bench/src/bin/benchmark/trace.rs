//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer; nothing inside the program is instrumented. Some child
//! spans are laid out from stage timings the program already returns
//! (`WashResult::pipeline`, `Served::service_s`, `Ticket::latency`): they
//! start where the previous sibling ended, inside their parent. Spans stay
//! in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Value;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Spans of one request (or one replayed instance) share this id.
    pub request: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store: one short lock per recorded span.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Allocates a span id ahead of [`record_as`](Self::record_as), so
    /// children that finish first can name their parent.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_as(self.reserve(), name, request, parent, start, end)
    }

    /// Records a finished span under an id from [`reserve`](Self::reserve).
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        id
    }

    /// Records `stages` as consecutive children of `parent`, starting at
    /// `start` and clipped to `end`: the layout for stage durations the
    /// program reports about a call the benchmark timed from outside.
    pub fn record_stages(
        &self,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        stages: &[(&'static str, f64)],
    ) {
        let mut at = start;
        for &(name, seconds) in stages {
            if seconds <= 0.0 {
                continue;
            }
            let stop = (at + Duration::from_secs_f64(seconds)).min(end);
            self.record(name, request, Some(parent), at, stop);
            at = stop;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Times `f`, recording a span when a tracer is present. Returns the value
/// and the elapsed milliseconds (measured either way, since the per-layer
/// metrics need them).
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    parent: Option<u64>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    if let Some(tr) = tracer {
        tr.record(name, request, parent, t0, t1);
    }
    (r, (t1 - t0).as_secs_f64() * 1e3)
}

/// Per-name totals for the self-time table.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTime {
    pub spans: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Aggregates spans by name. A span's self time is its duration minus the
/// part of it its children cover (children of one parent never overlap:
/// each is a call the benchmark made in sequence, or a laid-out stage).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some((ps, pe)) = s.parent.and_then(|p| bounds.get(&p)) {
            let covered = s.end_ns.min(*pe).saturating_sub(s.start_ns.max(*ps));
            *child_ns
                .entry(s.parent.expect("checked above"))
                .or_default() += covered;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let dur = s.duration_ns();
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        e.spans += 1;
        e.total_ms += dur as f64 / 1e6;
        e.self_ms += own as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON to `path`, creating its directory.
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let span_values: Vec<Value> = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("id".into(), Value::UInt(s.id)),
                ("parent".into(), s.parent.map_or(Value::Null, Value::UInt)),
                ("name".into(), Value::Str(s.name.into())),
                ("request".into(), Value::UInt(s.request)),
                ("start_us".into(), Value::Float(s.start_ns as f64 / 1e3)),
                ("end_us".into(), Value::Float(s.end_ns as f64 / 1e3)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("spans".into(), Value::Array(span_values)),
    ]);
    let text = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_clipped_to_the_parent() {
        let tr = Tracer::new();
        let t0 = tr.epoch;
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = tr.record("root", 7, None, ms(0), ms(10));
        tr.record_stages(7, root, ms(0), ms(10), &[("a", 0.004), ("b", 0.009)]);
        let table = self_times(&tr.spans());
        assert_eq!(table["root"].spans, 1);
        assert!((table["root"].total_ms - 10.0).abs() < 1e-9);
        // `a` covers 4 ms and `b` is clipped to the remaining 6 ms.
        assert!((table["a"].self_ms - 4.0).abs() < 1e-9);
        assert!((table["b"].total_ms - 6.0).abs() < 1e-9);
        assert!(table["root"].self_ms.abs() < 1e-9);
        assert!(tr.spans().iter().all(|s| s.request == 7));
    }
}
