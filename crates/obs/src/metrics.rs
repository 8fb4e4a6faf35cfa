//! The internals metrics registry: counters, gauges, and fixed-bucket
//! histograms for the profiler's own machinery.
//!
//! Instrumented code is generic over [`Recorder`]; the default
//! [`NoopRecorder`] has empty inlined methods, so when observability is
//! off the calls monomorphize away and the hot paths (`pp bench`, the
//! differential suite) are byte-for-byte what they were before. When a
//! run *is* observed, a [`Registry`] collects everything into
//! deterministically-ordered maps whose [`Registry::snapshot`] text and
//! [`Registry::to_json`] renderings are byte-identical for identical
//! runs — that determinism is itself under test in the differential
//! suite.
//!
//! Metric names are dotted lowercase paths (`cct.enter.fast_hit`,
//! `path.hashed.probe_len`); units, where not obvious, live in the name
//! (`serialize.flow.bytes`, `serialize.crc_ns`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sink for internals metrics. All methods have no-op defaults so
/// recorders only implement what they keep.
pub trait Recorder {
    /// False only for recorders that keep nothing ([`NoopRecorder`]).
    /// Instrumented code tests it to skip tallies whose only purpose is
    /// to be recorded; the test is a constant, so it compiles away.
    const ENABLED: bool = true;

    /// Adds `delta` to the named monotonic counter.
    #[inline(always)]
    fn counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the named gauge to `value` (last write wins).
    #[inline(always)]
    fn gauge(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one observation of `value` into the named histogram.
    #[inline(always)]
    fn observe(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Folds a histogram of observations made elsewhere into the named
    /// histogram — the same result as observing each of its values in
    /// turn, in one call.
    #[inline(always)]
    fn histogram(&mut self, name: &'static str, hist: &Hist) {
        let _ = (name, hist);
    }
}

/// The default recorder: keeps nothing, compiles to nothing.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;
}

impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    #[inline(always)]
    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }

    #[inline(always)]
    fn gauge(&mut self, name: &'static str, value: f64) {
        (**self).gauge(name, value);
    }

    #[inline(always)]
    fn observe(&mut self, name: &'static str, value: u64) {
        (**self).observe(name, value);
    }

    #[inline(always)]
    fn histogram(&mut self, name: &'static str, hist: &Hist) {
        (**self).histogram(name, hist);
    }
}

/// Number of power-of-two buckets in a [`Hist`]: bucket `i` counts
/// values in `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones), with
/// the last bucket absorbing everything larger.
pub const HIST_BUCKETS: usize = 32;

/// A fixed-bucket histogram over `u64` observations: power-of-two
/// buckets plus exact count / sum / max, so means and tail shape both
/// survive aggregation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hist {
    /// Power-of-two bucket counts; see [`HIST_BUCKETS`].
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = (64 - value.max(1).leading_zeros() as usize - 1).min(HIST_BUCKETS - 1);
        let idx = if value <= 1 { 0 } else { idx.max(1) };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one: buckets, count, and sum
    /// add (saturating), max takes the larger. Because the buckets are
    /// fixed, absorption is exact — aggregating per-shard or per-worker
    /// histograms loses nothing, which is what makes fleet-level
    /// rollups of `merge.*` and `service.*` metrics trustworthy.
    pub fn absorb(&mut self, other: &Hist) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// One named metric in a [`Registry`] snapshot.
#[derive(Clone, PartialEq, Debug)]
pub enum Metric {
    /// A monotonic counter.
    Counter(u64),
    /// A last-write-wins gauge.
    Gauge(f64),
    /// A fixed-bucket histogram (boxed: the bucket array dwarfs the
    /// scalar variants).
    Hist(Box<Hist>),
}

/// A [`Recorder`] that keeps everything, deterministically ordered by
/// metric name.
#[derive(Clone, Default, Debug)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Hist>,
}

impl Recorder for Registry {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().observe(value);
    }

    fn histogram(&mut self, name: &'static str, hist: &Hist) {
        // An empty fold observes nothing, so it must not create the entry.
        if hist.count > 0 {
            self.hists.entry(name).or_default().absorb(hist);
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named counter's value (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observations landed.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Iterates every metric in name order (counters, then gauges,
    /// then histograms — each sorted).
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Metric)> + '_ {
        let c = self.counters.iter().map(|(&n, &v)| (n, Metric::Counter(v)));
        let g = self.gauges.iter().map(|(&n, &v)| (n, Metric::Gauge(v)));
        let h = self
            .hists
            .iter()
            .map(|(&n, v)| (n, Metric::Hist(Box::new(v.clone()))));
        c.chain(g).chain(h)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Folds another registry into this one: counters add (saturating),
    /// gauges take the other's value (last write wins, matching
    /// [`Recorder::gauge`]), histograms absorb bucket-wise. This is the
    /// fleet-metrics rollup: fold N per-run or per-worker registries
    /// into one view, in any order, and the counter/histogram totals
    /// come out the same.
    pub fn absorb(&mut self, other: &Registry) {
        for (&name, &v) in &other.counters {
            let c = self.counters.entry(name).or_default();
            *c = c.saturating_add(v);
        }
        for (&name, &v) in &other.gauges {
            self.gauges.insert(name, v);
        }
        for (&name, h) in &other.hists {
            self.hists.entry(name).or_default().absorb(h);
        }
    }

    /// A deterministic plain-text snapshot, one metric per line —
    /// byte-identical for identical runs, which the differential suite
    /// asserts across the two interpreters.
    pub fn snapshot(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(s, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(s, "gauge {name} {}", fmt_f64(*v));
        }
        for (name, h) in &self.hists {
            let _ = writeln!(
                s,
                "hist {name} count={} sum={} max={} mean={}",
                h.count,
                h.sum,
                h.max,
                fmt_f64(h.mean())
            );
        }
        s
    }

    /// Renders the registry as a JSON object: counters as integers,
    /// gauges as numbers, histograms as `{count, sum, max, mean}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut first = true;
        let mut item = |s: &mut String, name: &str, body: String| {
            if !std::mem::take(&mut first) {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", crate::json::quote(name), body);
        };
        for (name, v) in &self.counters {
            item(&mut s, name, v.to_string());
        }
        for (name, v) in &self.gauges {
            item(&mut s, name, fmt_f64(*v));
        }
        for (name, h) in &self.hists {
            item(
                &mut s,
                name,
                format!(
                    "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{}}}",
                    h.count,
                    h.sum,
                    h.max,
                    fmt_f64(h.mean())
                ),
            );
        }
        s.push('}');
        s
    }

    /// Renders the registry in Prometheus text-exposition style for
    /// scraping (`pp status --metrics --prom`): dotted names become
    /// `pp_`-prefixed underscore names, counters and gauges keep their
    /// types, and each histogram becomes a `summary` (`_count`/`_sum`)
    /// plus a `_max` gauge. Deterministically ordered like every other
    /// rendering.
    pub fn prom_text(&self) -> String {
        fn mangle(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 3);
            out.push_str("pp_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        let mut s = String::new();
        for (name, v) in &self.counters {
            let n = mangle(name);
            let _ = writeln!(s, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = mangle(name);
            let _ = writeln!(s, "# TYPE {n} gauge\n{n} {}", fmt_f64(*v));
        }
        for (name, h) in &self.hists {
            let n = mangle(name);
            let _ = writeln!(
                s,
                "# TYPE {n} summary\n{n}_count {}\n{n}_sum {}\n\
                 # TYPE {n}_max gauge\n{n}_max {}",
                h.count, h.sum, h.max
            );
        }
        s
    }
}

/// Formats an `f64` deterministically and JSON-compatibly (no `NaN` /
/// `inf` — they render as 0, which only fault-free metrics avoid
/// anyway).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_accepts_everything() {
        let mut r = NoopRecorder;
        r.counter("a", 1);
        r.gauge("b", 2.0);
        r.observe("c", 3);
    }

    #[test]
    fn registry_accumulates_and_orders() {
        let mut r = Registry::new();
        r.counter("z.second", 2);
        r.counter("a.first", 1);
        r.counter("z.second", 3);
        r.gauge("mid", 0.5);
        r.observe("h", 4);
        r.observe("h", 4);
        assert_eq!(r.counter_value("z.second"), 5);
        assert_eq!(r.gauge_value("mid"), Some(0.5));
        assert_eq!(r.hist("h").unwrap().count, 2);
        let snap = r.snapshot();
        let a = snap.find("a.first").unwrap();
        let z = snap.find("z.second").unwrap();
        assert!(a < z, "name-ordered: {snap}");
    }

    #[test]
    fn forwarding_through_mut_ref_works() {
        fn record<R: Recorder>(mut r: R) {
            r.counter("x", 7);
        }
        let mut reg = Registry::new();
        record(&mut reg);
        assert_eq!(reg.counter_value("x"), 7);
        const { assert!(<&mut Registry as Recorder>::ENABLED) };
        const { assert!(!<&mut NoopRecorder as Recorder>::ENABLED) };
    }

    #[test]
    fn histogram_fold_equals_observing_each_value() {
        let mut one_by_one = Registry::new();
        let mut folded = Registry::new();
        let mut h = Hist::default();
        for v in [3, 0, 17, 1 << 40] {
            one_by_one.observe("h", v);
            h.observe(v);
        }
        folded.histogram("h", &h);
        folded.histogram("empty", &Hist::default());
        assert_eq!(one_by_one.snapshot(), folded.snapshot());
        assert!(folded.hist("empty").is_none());
    }

    #[test]
    fn hist_buckets_by_power_of_two() {
        let mut h = Hist::default();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[2], 1, "4");
        assert_eq!(h.buckets[10], 1, "1024");
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1, "overflow bucket");
    }

    #[test]
    fn snapshot_is_deterministic_and_json_parses() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for r in [&mut a, &mut b] {
            r.counter("c.one", 41);
            r.counter("c.one", 1);
            r.gauge("g.rate", 0.875);
            r.observe("h.depth", 3);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.to_json(), b.to_json());
        let v = crate::json::parse(&a.to_json()).expect("valid JSON");
        assert_eq!(v.get("c.one").and_then(crate::Json::as_f64), Some(42.0));
        assert_eq!(v.get("g.rate").and_then(crate::Json::as_f64), Some(0.875));
    }

    #[test]
    fn prom_text_mangles_names_and_types_metrics() {
        let mut r = Registry::new();
        r.counter("service.admitted", 12);
        r.gauge("service.queue_depth", 3.0);
        r.observe("service.exec_wall_us", 100);
        r.observe("service.exec_wall_us", 50);
        let prom = r.prom_text();
        assert!(prom.contains("# TYPE pp_service_admitted counter\npp_service_admitted 12"));
        assert!(prom.contains("# TYPE pp_service_queue_depth gauge\npp_service_queue_depth 3"));
        assert!(prom.contains("pp_service_exec_wall_us_count 2"));
        assert!(prom.contains("pp_service_exec_wall_us_sum 150"));
        assert!(prom.contains("pp_service_exec_wall_us_max 100"));
    }

    #[test]
    fn absorb_folds_registries_exactly() {
        let mut a = Registry::new();
        a.counter("c", 2);
        a.gauge("g", 1.0);
        a.observe("h", 4);
        let mut b = Registry::new();
        b.counter("c", 3);
        b.counter("only_b", 1);
        b.gauge("g", 9.0);
        b.observe("h", 1024);
        a.absorb(&b);
        assert_eq!(a.counter_value("c"), 5);
        assert_eq!(a.counter_value("only_b"), 1);
        assert_eq!(a.gauge_value("g"), Some(9.0), "last write wins");
        let h = a.hist("h").unwrap();
        assert_eq!((h.count, h.sum, h.max), (2, 1028, 1024));
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[10], 1);
        // Saturation at the ceiling, like every other fleet fold.
        let mut big = Hist {
            count: u64::MAX - 1,
            ..Hist::default()
        };
        big.absorb(&Hist {
            count: 5,
            ..Hist::default()
        });
        assert_eq!(big.count, u64::MAX);
    }

    #[test]
    fn fmt_f64_is_stable() {
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(0.123456789), "0.123457");
        assert_eq!(fmt_f64(f64::NAN), "0");
    }
}
