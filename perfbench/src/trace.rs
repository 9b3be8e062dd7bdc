//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)`. Spans are recorded only by the benchmark's
//! own code, never inside the program, and only when tracing is on: a disabled
//! [`Tracer`] runs the wrapped call and records nothing. The spans stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span, so that the spans a call causes can name it as
/// their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One finished span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Its own id.
    pub id: SpanId,
    /// The span that caused it, if any.
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `engine.batch.FL`.
    pub name: String,
    /// Start, in seconds since the epoch.
    pub start: f64,
    /// End, in seconds since the epoch.
    pub end: f64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<(usize, Vec<Span>)>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        }
    }

    /// Reserves an id for a span that will be recorded later with
    /// [`Tracer::record`]; lets child spans name it before it ends.
    pub fn open(&self) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut state = self.state.lock().expect("tracer lock poisoned by a panic");
        state.0 += 1;
        Some(SpanId(state.0))
    }

    /// Records a finished span under a reserved id (no-op when disabled).
    pub fn record(
        &self,
        id: Option<SpanId>,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        let Some(id) = id else { return };
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start: start.duration_since(self.epoch).as_secs_f64(),
            end: end.duration_since(self.epoch).as_secs_f64(),
        };
        self.state
            .lock()
            .expect("tracer lock poisoned by a panic")
            .1
            .push(span);
    }

    /// Runs `call` inside a span named `name`; `call` receives the span's id to
    /// parent the spans it causes.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        call: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return call(None);
        }
        let id = self.open();
        let start = Instant::now();
        let out = call(id);
        self.record(id, name, parent, start, Instant::now());
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panic")
            .1
            .clone()
    }
}

/// Per span name: the summed self time (seconds) and the number of spans.
///
/// A span's self time is its duration minus the part of its interval that its
/// children cover; overlapping children (concurrent requests) count once.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (f64, usize)> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans {
        if let Some(SpanId(parent)) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for span in spans {
        let kids = children.get(&span.id.0).map_or(&[][..], Vec::as_slice);
        let own = (span.end - span.start) - covered(span.start, span.end, kids);
        let entry = out.entry(span.name.clone()).or_insert((0.0, 0));
        entry.0 += own.max(0.0);
        entry.1 += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: f64, end: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Renders spans as a JSON array (one object per line).
pub fn to_json(spans: &[Span]) -> String {
    let lines: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.id.0, s.name, s.start, s.end
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// A span built by hand, for tests of span arithmetic.
#[cfg(test)]
pub(crate) fn span(id: usize, parent: Option<usize>, name: &str, start: f64, end: f64) -> Span {
    Span {
        id: SpanId(id),
        parent: parent.map(SpanId),
        name: name.to_string(),
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, "outer", 0.0, 10.0),
            span(2, Some(1), "inner", 1.0, 4.0),
            span(3, Some(1), "inner", 6.0, 7.0),
            span(4, Some(2), "leaf", 2.0, 3.0),
        ];
        let t = self_times(&spans);
        assert!(close(t["outer"].0, 6.0));
        assert_eq!(t["inner"].1, 2);
        assert!(close(t["inner"].0, 3.0)); // (3 - 1) + 1
        assert!(close(t["leaf"].0, 1.0));
        // Self times partition the root's interval.
        let total: f64 = t.values().map(|v| v.0).sum();
        assert!(close(total, 10.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(1, None, "phase", 0.0, 10.0),
            span(2, Some(1), "request", 1.0, 5.0),
            span(3, Some(1), "request", 3.0, 6.0),
            span(4, Some(1), "request", 8.0, 12.0), // runs past its parent's end
        ];
        let t = self_times(&spans);
        // Covered: [1, 6] and [8, 10] -> 7 of 10.
        assert!(close(t["phase"].0, 3.0));
        assert!(close(t["request"].0, 4.0 + 3.0 + 4.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span("x", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, |outer| {
            tracer.span("inner", outer, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        let inner = spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start >= outer.start && inner.end <= outer.end);
        assert!(to_json(&spans).contains("\"name\": \"inner\""));
    }
}
