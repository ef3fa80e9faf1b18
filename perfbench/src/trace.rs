//! Benchmark-side spans around the calls into each layer.
//!
//! The program itself carries no tracing: each span wraps one public
//! call the benchmark makes (`ServiceRouter::submit`, `Tnam::build`,
//! ...). Spans of one request or one build share its id. They stay in
//! memory during the run and are written out once it ends.

use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records `[start, end)` as span `name` of request `req` (no-op when
    /// tracing is off).
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span { req, name, parent, start_ns: ns(start), end_ns: ns(end) });
        }
    }

    /// Runs `f` as span `name` of request `req` and returns its result
    /// with the elapsed time (measured whether or not tracing is on).
    pub fn time<R>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(req, name, parent, start, end);
        (out, end - start)
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
