//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are opened around the public calls into each layer, nest by a
//! stack, carry the scenario or run id, and stay in memory until the run
//! ends. A span's self time is its duration minus the time its direct
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Scenario index or run index the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span buffer with a nesting stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let index = self.begin(name, id);
        let out = f();
        self.end(index);
        out
    }

    /// Opens a span that encloses later spans until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        index
    }

    /// Closes the innermost span, which must be `index`.
    pub fn end(&mut self, index: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close in nesting order");
        self.spans[index].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let d = self.durations(name);
        (d.iter().sum(), d.len() as u64)
    }

    /// Self time (ms) of every span named `name`: its duration minus the
    /// duration of its direct children. Negative values would mean the
    /// children overlap or outlast the parent.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children = child_ns.get(&i).copied().unwrap_or(0);
                ((s.end_ns - s.start_ns) as f64 - children as f64) / 1e6
            })
            .collect()
    }

    /// Writes the first `limit` spans as one JSON line each (name, id,
    /// parent, start, end in ns since the tracer started).
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 0);
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let (inner_ms, calls) = t.total("inner");
        assert_eq!(calls, 2);
        let self_ms = t.self_times("outer")[0];
        assert!(self_ms >= 0.0);
        assert!((t.total("outer").0 - inner_ms - self_ms).abs() < 1e-6);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
