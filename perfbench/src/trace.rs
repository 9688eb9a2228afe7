//! In-memory spans for the traced run.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! created), the span that caused it, and a trace id (the request id or
//! instance id it belongs to). Spans are kept in memory and written out
//! once, when the run ends. A layer's self time is its span's duration
//! minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.solve`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// Request id or instance id the span belongs to.
    pub trace: u64,
}

/// Span recorder. Spans opened with [`Tracer::begin`] nest: the innermost
/// open span becomes the parent of the next one.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str, trace: u64) -> SpanId {
        let start = self.nanos(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            trace,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.nanos(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, trace: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name, trace);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records an already-finished interval under the innermost open span
    /// (used where the timed call cannot hold the tracer, e.g. a solver
    /// invoked from inside the market step).
    pub fn record(&mut self, name: &str, trace: u64, start: Instant, end: Instant) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start: self.nanos(start),
            end: self.nanos(end),
            parent: self.open.last().copied(),
            trace,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON line per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{}}}",
                s.name, s.start, s.end, s.trace
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self times grouped by span name, in nanoseconds.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<String, Vec<u64>> {
    let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name.clone()).or_default().push(t);
    }
    out
}

/// Durations grouped by span name, in nanoseconds.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<String, Vec<u64>> {
    let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name.clone()).or_default().push(s.end - s.start);
    }
    out
}
