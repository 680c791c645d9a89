//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that caused it and the id of the run it belongs to.
//! Spans stay in memory while the benchmark runs and are written out as
//! JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span: its index in the tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that children can name as their parent; its end is set
    /// by [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, run: u64) -> SpanId {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(Span {
            name,
            parent,
            run,
            start_ns: now,
            end_ns: now,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let now = self.now_ns();
        self.spans.lock().expect("tracer poisoned")[id].end_ns = now;
    }

    /// Runs `f` inside a span and returns its result and the span's length
    /// in milliseconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        let ms = self.spans.lock().expect("tracer poisoned")[id].ms();
        (out, ms)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }
}

/// Writes the spans of every pass as one JSON object per line.
pub fn write_jsonl(path: &Path, passes: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, spans) in passes.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":{pass},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

/// Total milliseconds of every span called `name` (`0` when there is none).
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .sum::<f64>()
        + 0.0
}

/// Number of spans called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover. Overlapping children are counted once, and a child's
/// part outside the parent is ignored.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    parent.duration_ns().saturating_sub(covered)
}

/// Summed self time, in milliseconds, of every span called `name`.
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(id, s)| {
            let children: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(id)).collect();
            self_time_ns(s, &children) as f64 / 1e6
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            parent: None,
            run: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time_ns(&span(10, 50), &[]), 40);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let (a, b) = (span(10, 20), span(30, 35));
        assert_eq!(self_time_ns(&span(0, 100), &[&a, &b]), 85);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10, 30) and [20, 40) cover [10, 40): 30 ns, not 40.
        let (a, b) = (span(10, 30), span(20, 40));
        assert_eq!(self_time_ns(&span(0, 100), &[&b, &a]), 70);
        // A child nested in another adds nothing.
        let c = span(12, 18);
        assert_eq!(self_time_ns(&span(0, 100), &[&a, &c, &b]), 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let (a, b) = (span(0, 20), span(90, 200));
        assert_eq!(self_time_ns(&span(10, 100), &[&a, &b]), 70);
        assert_eq!(self_time_ns(&span(10, 20), &[&span(0, 50)]), 0);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let tracer = Tracer::new();
        let run = tracer.open("run", None, 7);
        let (value, _) = tracer.time("graph", Some(run), 7, || 41 + 1);
        tracer.close(run);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(run));
        assert_eq!(spans[1].run, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(count(&spans, "graph"), 1);
        assert!(self_ms(&spans, "run") <= spans[0].ms());
    }
}
