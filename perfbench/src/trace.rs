//! The benchmark's own spans around the public calls into each layer.
//!
//! A span has a name, a start, an end, a parent, and the id of the op
//! it belongs to (all spans of one op share it). Spans stay in memory
//! and are written as JSON lines when the run ends. A disabled tracer
//! records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span wraps.
    pub name: &'static str,
    /// Op the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created (`NaN` while open).
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// index so it can parent child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().unwrap();
            spans.push(Span {
                name,
                op,
                parent,
                start_us: self.now_us(),
                end_us: f64::NAN,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_us();
        self.spans.lock().unwrap()[id].end_us = end;
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Copies of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Per span name: (count, total ms, self ms). Self time is a span's
    /// duration minus the part its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let mut child_ms = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ms();
            entry.2 += s.ms() - child_ms[i];
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.op, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_op_and_split_self_time() {
        let t = Tracer::new(true);
        t.span("outer", 7, None, |outer| {
            t.span("inner", 7, outer, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_us >= s.start_us));
        let summary = t.summary();
        let (n, total, own) = summary["outer"];
        assert_eq!(n, 1);
        assert!(own < total && total >= 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
