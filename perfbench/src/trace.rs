//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each layer in spans: name, start,
//! end, parent span and request id. Spans stay in memory and are written
//! out when the run ends. A disabled tracer records nothing and never
//! reads the clock.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Request the span belongs to, 0 for none.
    pub req: u64,
}

/// The span sink of one run.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The tracer's clock reading for `at`.
    fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.origin)
    }

    /// Record a finished span and return its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            name,
            start_ns: nanos(self.offset(start)),
            end_ns: nanos(self.offset(end)),
            parent,
            req,
        };
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans.push(span);
        spans.len() as u64
    }

    /// Open a span that starts now and return its id, for children to name
    /// as their parent; [`Tracer::end`] closes it.
    pub fn begin(&self, name: &'static str, parent: u64, req: u64) -> u64 {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&self, id: u64) {
        if id == 0 {
            return;
        }
        let end_ns = nanos(self.offset(Instant::now()));
        let mut spans = self.spans.lock().expect("span sink poisoned");
        spans[id as usize - 1].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Total and self time per span name, in milliseconds. A span's self
    /// time is its duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut child_ns = vec![0u64; spans.len() + 1];
        for s in spans.iter() {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i + 1]);
            let e = out.entry(s.name).or_default();
            e.0 += total as f64 / 1e6;
            e.1 += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        w.flush()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.record("root", at(0), at(10), 0, 1);
        t.record("child", at(2), at(5), root, 1);
        t.record("child", at(6), at(8), root, 1);
        let st = t.self_times();
        assert_eq!(st["root"], (10.0, 5.0));
        assert_eq!(st["child"], (5.0, 5.0));
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
