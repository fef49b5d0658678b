//! In-memory spans around the benchmark's own calls into each layer's
//! public functions.
//!
//! A span records its name, start, end, parent and the request it
//! belongs to. Spans stay in memory while the run measures and are
//! written out (one tab-separated line each) when it ends. Self time is
//! a span's duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `nlq.classify`.
    pub name: &'static str,
    /// Start instant.
    pub start: Instant,
    /// End instant.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or work item) the span belongs to.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total: Duration,
    /// Summed self time (duration minus direct children).
    pub self_total: Duration,
}

impl Summary {
    /// Mean duration in microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.count as f64
        }
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = Instant::now();
        out
    }

    /// Rename the most recent span named `from` (e.g. once the answer
    /// tier of a respond call is known).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            span.name = to;
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times.
    pub fn summary(&self) -> BTreeMap<&'static str, Summary> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut out: BTreeMap<&'static str, Summary> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total += span.duration();
            entry.self_total += span.duration().saturating_sub(*children);
        }
        out
    }

    /// Write every span, then the per-name summary, to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# span\tname\tstart_us\tend_us\tparent\trequest")?;
        for (i, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{:.3}\t{:.3}\t{}\t{}",
                span.name,
                (span.start - self.origin).as_secs_f64() * 1e6,
                (span.end - self.origin).as_secs_f64() * 1e6,
                span.parent.map_or("-".to_string(), |p| p.to_string()),
                span.request
            )?;
        }
        writeln!(out, "# name\tcount\ttotal_us\tself_us\tmean_us")?;
        for (name, summary) in self.summary() {
            writeln!(
                out,
                "{name}\t{}\t{:.3}\t{:.3}\t{:.3}",
                summary.count,
                summary.total.as_secs_f64() * 1e6,
                summary.self_total.as_secs_f64() * 1e6,
                summary.mean_us()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.span("outer", 1, |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", 1, |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let summary = tracer.summary();
        let outer = summary["outer"];
        let inner = summary["inner"];
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(outer.total >= inner.total + Duration::from_millis(2));
        assert!(outer.self_total < outer.total - Duration::from_millis(4));
        assert_eq!(inner.self_total, inner.total);
    }
}
