//! Spans recorded from outside the engine, around the calls into each
//! layer. Kept in memory while a workload runs and written out once it
//! ends; in-program spans are ROADMAP item 1 and will be checked against
//! these.

use crate::json::Json;
use std::time::Instant;

/// One timed interval. `parent` is the span that caused it; spans of one
/// op share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A counter delta observed at a span boundary (e.g. `exec.comparisons`
/// across one `exec.q3` span).
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    pub op: u64,
    pub name: String,
    pub value: f64,
}

/// Records nested spans on one thread. `open` pushes, `close` pops; the
/// span open at the time is the parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
    pub counters: Vec<Counter>,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so spans from different
    /// threads line up on one clock.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Spans and counters recorded from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn open(&mut self, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere (a client's round trip) as a
    /// closed span under whatever is open now.
    pub fn record(&mut self, name: &str, start: Instant, took: std::time::Duration) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.stack.last().copied(),
            op: self.op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
        });
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.counters.push(Counter {
            op: self.op,
            name: name.to_string(),
            value,
        });
    }

    /// Appends another thread's spans, re-basing their ids past ours.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counters.extend(other.counters);
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Values of every counter named `name`, in recording order.
    pub fn counter_values(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }
}

/// Self time of each span: its duration minus the part its children
/// cover. Children of one parent on one thread never overlap, so that part
/// is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time (ms) per span name, descending — where the time went.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *totals.entry(&s.name).or_default() += own;
    }
    let mut out: Vec<(String, f64)> = totals
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns as f64 / 1e6))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Spans written per trace file; a `wire_point` run records one per
/// request (~35,000), and the file is for reading, not replay.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// The trace file body: the self-time breakdown over *all* spans, then the
/// first [`MAX_SPANS_WRITTEN`] spans and their counters.
pub fn to_json(tracer: &Tracer, workload: &str, seed: u64) -> Json {
    let written = tracer.spans.len().min(MAX_SPANS_WRITTEN);
    let last_op = tracer.spans[..written].last().map_or(0, |s| s.op);
    Json::obj()
        .with("workload", workload)
        .with("seed", seed)
        .with("spans_total", tracer.spans.len())
        .with("spans_written", written)
        .with(
            "self_time_ms_by_name",
            Json::Obj(
                self_time_by_name(&tracer.spans)
                    .into_iter()
                    .map(|(name, ms)| (name, Json::Num(ms)))
                    .collect(),
            ),
        )
        .with(
            "spans",
            tracer.spans[..written]
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("id", s.id as u64)
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        )
                        .with("op", s.op)
                        .with("name", s.name.as_str())
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                })
                .collect::<Vec<Json>>(),
        )
        .with(
            "counters",
            tracer
                .counters
                .iter()
                .filter(|c| c.op <= last_op)
                .map(|c| {
                    Json::obj()
                        .with("op", c.op)
                        .with("name", c.name.as_str())
                        .with("value", c.value)
                })
                .collect::<Vec<Json>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "stmt", 0, 100),
            span(1, Some(0), "core.optimize", 5, 25),
            span(2, Some(0), "exec.run", 30, 90),
            span(3, Some(2), "storage.read", 40, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("exec.run".to_string(), 50e-6));
        let total: f64 = by_name.iter().map(|(_, ms)| ms).sum();
        assert!((total - 100e-6).abs() < 1e-12, "self times sum to the root");
    }

    #[test]
    fn tracer_nests_and_absorb_rebases_ids() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.set_op(7);
        let outer = a.open("outer");
        a.span("inner", || ());
        a.close(outer);
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.spans[1].op, 7);
        assert!(a.spans[0].end_ns >= a.spans[1].end_ns);

        let mut b = Tracer::new(epoch);
        let outer = b.open("outer");
        b.span("inner", || ());
        b.close(outer);
        a.absorb(b);
        assert_eq!(a.spans[3].id, 3);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.durations_ms("inner").len(), 2);
    }
}
