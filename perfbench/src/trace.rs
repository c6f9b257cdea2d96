//! Benchmark-side tracing: spans around calls into each layer's public
//! functions, kept in memory and written out when the run ends.
//!
//! Coarse calls (one engine run, one certification) get a span each, with
//! the span that caused them as parent. Per-job calls (`next_job`, the
//! outcome sink, `parse_submission`, `offer`, `pump`) are too many for a
//! span each; they are folded into a count and a total per layer.

use parflow::core::{JobStream, StreamedJob};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// In-memory span and aggregate store of one traced run. A disabled
/// tracer still returns durations but stores nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    aggregates: BTreeMap<String, (u64, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            aggregates: BTreeMap::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: if self.enabled {
                name.to_string()
            } else {
                String::new()
            },
            parent: self.open.last().copied(),
            start_s: now,
            end_s: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost span and return its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let id = self.open.pop().expect("end() matches a begin()");
        let span = &mut self.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        let secs = span.end_s - span.start_s;
        if !self.enabled {
            self.spans.pop();
        }
        secs
    }

    /// Run `f` inside a span; returns its value and duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let out = f();
        (out, self.end())
    }

    /// Fold `count` per-job calls taking `secs` in total into `layer`.
    pub fn aggregate(&mut self, layer: &str, count: u64, secs: f64) {
        if !self.enabled {
            return;
        }
        let slot = self.aggregates.entry(layer.to_string()).or_default();
        slot.0 += count;
        slot.1 += secs;
    }

    /// Render every span and aggregate as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.start_s, s.end_s
            );
        }
        for (layer, (count, secs)) in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"aggregate\": \"{layer}\", \"count\": {count}, \"total_s\": {secs}}}"
            );
        }
        out
    }
}

/// A [`JobStream`] wrapper that times every `next_job` call of the stream
/// it wraps.
pub struct TimedStream<S> {
    pub inner: S,
    pub calls: u64,
    pub secs: f64,
}

impl<S> TimedStream<S> {
    pub fn new(inner: S) -> Self {
        TimedStream {
            inner,
            calls: 0,
            secs: 0.0,
        }
    }
}

impl<S: JobStream> JobStream for TimedStream<S> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        let t = Instant::now();
        let job = self.inner.next_job();
        self.secs += t.elapsed().as_secs_f64();
        self.calls += 1;
        job
    }
}
