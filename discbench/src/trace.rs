//! In-memory span recorder for the traced run. Spans are recorded only
//! here, in the benchmark, around its calls into each layer's public
//! functions; they are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Request id the span serves (0: none, e.g. build or open).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The recorder. When disabled, `begin`/`end` record nothing, which is
/// what the untraced replay the overhead is measured against runs with.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of a span that has begun.
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Begins a span, child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Ends a span begun by [`Recorder::begin`] (innermost first).
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now_ns();
            debug_assert_eq!(self.open.last(), Some(&id), "spans end innermost first");
            self.open.pop();
        }
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (the build child's phases are timed in that process).
    pub fn add(&mut self, name: &'static str, start: Instant, ms: f64) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            req: 0,
            name,
            start_ns,
            end_ns: start_ns + (ms * 1e6) as u64,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
                json::quote(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("request", 3);
        let inner = rec.begin("graph.view", 3);
        rec.end(inner);
        rec.end(outer);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert_eq!(rec.durations("graph.view").len(), 1);

        let mut off = Recorder::new(false);
        let s = off.begin("request", 1);
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
