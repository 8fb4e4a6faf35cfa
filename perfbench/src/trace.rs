//! Spans the benchmark records around each call into a layer of `pp`.
//!
//! A span is a name, a start, an end, the span that contains it, and an
//! id shared by every span of one profile or job. Spans are kept in
//! memory and written out when the run ends; a layer's self time is its
//! spans' duration minus the part their child spans cover. Timings the
//! benchmark reports come from the same clock readings whether or not
//! spans are kept, so tracing costs only the recording.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `instrument` or `service.submit`.
    pub name: &'static str,
    /// The profile or job this span belongs to.
    pub id: u64,
    /// Index of the containing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

/// The span recorder. When disabled it records nothing but still times
/// the calls it wraps.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id_base: u64,
}

impl Tracer {
    /// A tracer that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id_base: 0,
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns span keeping on or off (for interleaving traced and
    /// untraced work in one run).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Adds `base` to the id of every span recorded from now on, so a
    /// workload run inside another keeps ids of its own.
    pub fn set_id_base(&mut self, base: u64) {
        self.id_base = base;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` as span `name` of profile or job `id`, nested in the
    /// innermost span still open, and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                id: id + self.id_base,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end_ns = self.ns(end);
        }
        (out, end - start)
    }

    /// Records a span measured elsewhere (e.g. from a service's event
    /// timestamps) and returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            id: id + self.id_base,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Count, total and self time per span name: a span's self time is its
/// duration minus the durations of its direct children.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("profile", None, 0, 100),
            span("instrument", Some(0), 10, 30),
            span("simulate", Some(0), 40, 90),
            span("sink", Some(2), 50, 60),
        ];
        let t = totals(&spans);
        assert_eq!(t["profile"].self_ns, 30);
        assert_eq!(t["profile"].total_ns, 100);
        assert_eq!(t["instrument"].self_ns, 20);
        assert_eq!(t["simulate"].self_ns, 40);
        assert_eq!(t["sink"].self_ns, 10);
    }

    #[test]
    fn nested_time_calls_link_parents_and_disabled_tracer_keeps_nothing() {
        let mut tr = Tracer::new(true);
        let ((), outer) = tr.time("outer", 1, |tr| {
            tr.time("inner", 1, |_| std::hint::black_box(()));
        });
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(outer.as_nanos() as u64 >= tr.spans()[1].end_ns - tr.spans()[1].start_ns);

        let mut off = Tracer::new(false);
        let (v, _) = off.time("outer", 1, |_| 5);
        assert_eq!(v, 5);
        assert!(off.spans().is_empty());
    }
}
