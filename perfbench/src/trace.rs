//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span is a name, a start and an end (µs since the tracer started),
//! the index of the span that caused it, and the id of the request or
//! graph it belongs to. Per-layer metrics are sums over span names, so
//! a layer's number and the trace file always agree.

use spacefusion::serve::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `codegen.kernel`.
    pub name: &'static str,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Request or graph id shared by every span of one operation.
    pub id: u64,
}

impl Span {
    /// Duration, µs.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder. Disabled tracers record nothing and cost one branch.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the tracer's origin for an instant.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    /// Ends an opened span now.
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_us = self.at(Instant::now());
        }
    }

    /// Records a span that ran from `start` to `end`; returns its index
    /// (for children), or `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_us: self.at(start),
            end_us: self.at(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a span of known duration ending at `end` (a compiler pass
    /// reported through its event sink, which carries durations only).
    pub fn record_duration(
        &mut self,
        name: &'static str,
        end: Instant,
        duration_us: f64,
        parent: Option<usize>,
        id: u64,
    ) {
        if !self.enabled {
            return;
        }
        let end_us = self.at(end);
        self.spans.push(Span {
            name,
            start_us: end_us - duration_us,
            end_us,
            parent,
            id,
        });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total µs per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.us();
        }
        out
    }

    /// Number of spans with `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let doc = Json::obj(vec![
                ("i", Json::Num(i as f64)),
                ("name", Json::Str(s.name.into())),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("id", Json::Num(s.id as f64)),
            ]);
            writeln!(out, "{}", doc.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("a", now, now, None, 0), None);
        t.record_duration("b", now, 5.0, None, 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn totals_sum_by_name_and_children_nest() {
        let mut t = Tracer::new(true);
        let s = Instant::now();
        let e = s + Duration::from_micros(100);
        let root = t.record("root", s, e, None, 7);
        t.record("leaf", s, s + Duration::from_micros(30), root, 7);
        t.record("leaf", s + Duration::from_micros(40), e, root, 7);
        let totals = t.totals();
        assert!((totals["root"] - 100.0).abs() < 1e-6);
        assert!((totals["leaf"] - 90.0).abs() < 1e-6);
        assert_eq!(t.count("leaf"), 2);
        assert!(t.spans().iter().all(|x| x.id == 7));
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
