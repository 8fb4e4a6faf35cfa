//! Summary statistics and the arithmetic the benchmark derives its
//! layer prices from. Everything here is a pure function so the tests
//! can pin it down.

use std::collections::BTreeMap;
use std::time::Duration;

/// The three quartiles of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so in-run spreads agree with those `spread.py`
/// computes across runs. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        // `j` is 1-based, and `delta` uses the clamped `j`, exactly as in
        // Python's formula (so it can fall outside 0..4 for tiny inputs).
        let j = (k / 4).clamp(1, v.len() - 1);
        let delta = k as f64 - 4.0 * j as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The median of `values` (Python's `statistics.median`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The percentiles a timing may be reported at, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile on [`TAIL_LADDER`] that has at least ten of
/// `n` samples beyond it, or `None` when even the median has fewer.
/// A tail percentile with fewer samples beyond it is one slow sample
/// away from a different value.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|p| {
        // Integer per-mille arithmetic: 1.0 - 0.9 is not exactly 0.1.
        let beyond_per_mille = 1000 - (p * 10.0).round() as usize;
        n * beyond_per_mille / 1000 >= 10
    })
}

/// A timing distribution: the median, the 90th percentile and the
/// quartiles, with the sample count they rest on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let [q1, _, q3] = quartiles(values);
        Some(Summary {
            n: values.len(),
            p50: median(values),
            p90: percentile(values, 90.0),
            q1,
            q3,
        })
    }

    /// Whether the 90th percentile has at least ten samples beyond it.
    pub fn p90_supported(&self) -> bool {
        highest_supported_percentile(self.n).is_some_and(|p| p >= 90.0)
    }
}

/// The part of a profiled run that none of its measured stages
/// explains: `total − (instrument + decode + simulate)`. With
/// `simulate` taken under a no-op sink, the residual is the cost of the
/// profiling sink (path counters, the CCT runtime, PIC reads). It can
/// come out slightly negative when host noise exceeds the sink's cost;
/// it is reported as measured.
pub fn sink_residual(total: f64, instrument: f64, decode: f64, simulate: f64) -> f64 {
    total - instrument - decode - simulate
}

/// The four profiling layers Table 1's configurations separate, each
/// as (layer, configuration with it, configuration without it).
pub const LAYER_PRICES: [(&str, &str, &str); 4] = [
    ("path_counters", "flow_freq", "base"),
    ("pic_reads", "flow_hw", "flow_freq"),
    ("cct", "context_flow", "flow_freq"),
    ("cct_hw", "combined_hw", "context_flow"),
];

/// Prices each layer of [`LAYER_PRICES`] as the difference of two
/// overhead ratios over the same base (`base` itself is 1.0 when
/// absent from `x`). Layers whose configurations are missing are
/// skipped.
pub fn layer_prices(x: &BTreeMap<&str, f64>) -> Vec<(&'static str, f64)> {
    let get = |c: &str| {
        if c == "base" {
            Some(x.get(c).copied().unwrap_or(1.0))
        } else {
            x.get(c).copied()
        }
    };
    LAYER_PRICES
        .iter()
        .filter_map(|&(layer, with, without)| Some((layer, get(with)? - get(without)?)))
        .collect()
}

/// When job `i` of an open loop is due: `i` intervals after the start.
pub fn due(start: Duration, interval: Duration, i: usize) -> Duration {
    start + interval * i as u32
}

/// Sends `n` jobs open-loop, one every `interval` from the clock's
/// current reading, whatever the system does. `now` reads the clock,
/// `sleep_until` waits for a clock reading, and `send` submits job `i`.
/// Returns each job's (due, sent) clock readings. A send that stalls
/// delays the sends behind it, but their due times stay put, so latency
/// measured from `due` charges the stall to every job it delayed.
pub fn drive_open_loop(
    n: usize,
    interval: Duration,
    mut now: impl FnMut() -> Duration,
    mut sleep_until: impl FnMut(Duration),
    mut send: impl FnMut(usize),
) -> Vec<(Duration, Duration)> {
    let start = now();
    (0..n)
        .map(|i| {
            let due = due(start, interval, i);
            if now() < due {
                sleep_until(due);
            }
            let sent = now();
            send(i);
            (due, sent)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        let s = Summary::of(&vec![1.0; 100]).unwrap();
        assert!(s.p90_supported());
        assert!(!Summary::of(&vec![1.0; 99]).unwrap().p90_supported());
    }

    #[test]
    fn sink_residual_is_what_stages_leave() {
        assert_eq!(sink_residual(10.0, 1.0, 2.0, 5.0), 2.0);
        assert_eq!(sink_residual(7.0, 1.0, 2.0, 5.0), -1.0);
    }

    #[test]
    fn layer_prices_are_ratio_differences() {
        let x: BTreeMap<&str, f64> = [
            ("flow_freq", 1.5),
            ("flow_hw", 1.75),
            ("context_flow", 2.25),
            ("combined_hw", 3.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            layer_prices(&x),
            vec![
                ("path_counters", 0.5),
                ("pic_reads", 0.25),
                ("cct", 0.75),
                ("cct_hw", 0.75),
            ]
        );
        let partial: BTreeMap<&str, f64> = [("flow_freq", 1.5)].into_iter().collect();
        assert_eq!(layer_prices(&partial), vec![("path_counters", 0.5)]);
    }

    #[test]
    fn open_loop_charges_a_stall_to_later_jobs() {
        let ms = Duration::from_millis;
        let clock = Cell::new(ms(0));
        let sends = drive_open_loop(
            5,
            ms(10),
            || clock.get(),
            |t| clock.set(t),
            |i| {
                // Job 1's send stalls for 35 ms; every send costs 1 ms.
                let cost = if i == 1 { 35 } else { 1 };
                clock.set(clock.get() + ms(cost));
            },
        );
        let dues: Vec<_> = sends.iter().map(|s| s.0).collect();
        assert_eq!(dues, vec![ms(0), ms(10), ms(20), ms(30), ms(40)]);
        let sent: Vec<_> = sends.iter().map(|s| s.1).collect();
        // Jobs 2 to 4 go out late, back to back, behind the stall.
        assert_eq!(sent, vec![ms(0), ms(10), ms(45), ms(46), ms(47)]);
        // Each job finishes 2 ms after it is sent; latency counts from
        // the due time, so the stall shows in every job it delayed.
        let latency: Vec<_> = sends.iter().map(|&(d, s)| s + ms(2) - d).collect();
        assert_eq!(latency, vec![ms(2), ms(2), ms(27), ms(18), ms(9)]);
    }
}
