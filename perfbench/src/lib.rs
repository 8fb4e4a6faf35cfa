//! The `pp` benchmark: three workloads, measured end to end and per
//! layer from outside the program. See `README.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod closed;
pub mod common;
pub mod fleet;
pub mod stats;
pub mod trace;
pub mod yardstick;

use common::{Outcome, Params};
use trace::Tracer;

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["table1", "stats", "fleet"];

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ns_per_uop", "ns"),
    ("profile_ms_p50", "ms"),
    ("profile_ms_p90", "ms"),
    ("sim_overhead_x", "x"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// The end-to-end metrics only a job engine defines, which untraced
/// `fleet` runs report after [`END_TO_END`].
pub const FLEET_END_TO_END: [(&str, &str); 3] = [
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("batch_jobs_per_s", "1/s"),
];

/// The per-layer metrics of the closed loops' own passes, with units.
pub const CLOSED_LAYER: [(&str, &str); 52] = [
    ("workloads.build_ms", "ms"),
    ("instrument.ms", "ms"),
    ("instrument.growth_x", "x"),
    ("usim.decode_ms", "ms"),
    ("usim.base_ns_per_uop", "ns"),
    ("usim.inst_ns_per_uop.flow_freq", "ns"),
    ("usim.inst_ns_per_uop.flow_hw", "ns"),
    ("usim.inst_ns_per_uop.context_hw", "ns"),
    ("usim.inst_ns_per_uop.context_flow", "ns"),
    ("usim.inst_ns_per_uop.combined_hw", "ns"),
    ("sink.ns_per_uop.flow_freq", "ns"),
    ("sink.ns_per_uop.flow_hw", "ns"),
    ("sink.ns_per_uop.context_hw", "ns"),
    ("sink.ns_per_uop.context_flow", "ns"),
    ("sink.ns_per_uop.combined_hw", "ns"),
    ("host_x.flow_freq", "x"),
    ("host_x.flow_hw", "x"),
    ("host_x.context_hw", "x"),
    ("host_x.context_flow", "x"),
    ("host_x.combined_hw", "x"),
    ("sim_x.flow_freq", "x"),
    ("sim_x.flow_hw", "x"),
    ("sim_x.context_hw", "x"),
    ("sim_x.context_flow", "x"),
    ("sim_x.combined_hw", "x"),
    ("price.path_counters.host_x", "x"),
    ("price.pic_reads.host_x", "x"),
    ("price.cct.host_x", "x"),
    ("price.cct_hw.host_x", "x"),
    ("price.path_counters.sim_x", "x"),
    ("price.pic_reads.sim_x", "x"),
    ("price.cct.sim_x", "x"),
    ("price.cct_hw.sim_x", "x"),
    ("usim.ref_speedup", "x"),
    ("usim.uops.base", "count"),
    ("usim.uops.flow_freq", "count"),
    ("usim.uops.flow_hw", "count"),
    ("usim.uops.context_hw", "count"),
    ("usim.uops.context_flow", "count"),
    ("usim.uops.combined_hw", "count"),
    ("cct.records", "count"),
    ("cct.heap_bytes", "bytes"),
    ("pathprof.paths_executed", "count"),
    ("obs.host_x", "x"),
    ("analysis.ms", "ms"),
    ("obs.registry_entries", "count"),
    ("merge.ms", "ms"),
    ("merge.shards", "count"),
    ("merge.bytes", "bytes"),
    ("merge.mb_per_s", "MB/s"),
    ("trace.overhead_pct", "%"),
    ("yardstick.ns_per_uop", "ns"),
];

/// The per-layer metrics of the job engines, which `fleet` measures.
/// Traced closed-loop runs measure them too, with a short `fleet` run of
/// their own after their passes.
pub const FLEET_LAYER: [(&str, &str); 14] = [
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p90", "us"),
    ("service.queue_ms_p50", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("job.instrument_ms", "ms"),
    ("job.decode_ms", "ms"),
    ("job.simulate_ms", "ms"),
    ("integrity.verify_ms", "ms"),
    ("cct.write_ms", "ms"),
    ("cct.read_ms", "ms"),
    ("service.overhead_x", "x"),
    ("supervisor.overhead_x", "x"),
    ("gen.late_ms_p90", "ms"),
    ("service.refused", "count"),
];

/// The per-layer metrics every traced run reports, with units:
/// [`CLOSED_LAYER`], then [`FLEET_LAYER`]. Both closed loops measure all
/// of them; `fleet` reports 0 for the closed loops' layers.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    CLOSED_LAYER.iter().chain(&FLEET_LAYER).copied().collect()
}

/// Runs workload `name` with `p`. The outcome holds exactly the metrics
/// of [`END_TO_END`] (untraced; `fleet` adds [`FLEET_END_TO_END`]) or
/// [`per_layer`] (traced), in that order; the tracer holds the spans.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(name: &str, p: &Params) -> Result<(Outcome, Tracer), String> {
    // The program's own span ring stays off: spans come from this
    // benchmark, around the calls into each layer.
    pp_obs::trace::enable(false);
    let mut out = Outcome::default();
    let mut tr = Tracer::new(p.trace);
    let yard = yardstick::Yardstick::new();
    match name {
        "table1" => closed::run(closed::Kind::Table1, p, &mut out, &mut tr, &yard),
        "stats" => closed::run(closed::Kind::Stats, p, &mut out, &mut tr, &yard),
        "fleet" => fleet::run(p, &mut out, &mut tr, &yard),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("success_ratio", success, "ratio");
    let wanted: Vec<(&str, &str)> = match (p.trace, name) {
        (true, _) => per_layer(),
        (false, "fleet") => END_TO_END.iter().chain(&FLEET_END_TO_END).copied().collect(),
        (false, _) => END_TO_END.to_vec(),
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (metric, unit) in wanted {
        match out.metrics.iter().find(|m| m.name == metric) {
            Some(m) => {
                debug_assert_eq!(m.unit, unit, "{metric}");
                metrics.push(m.clone());
            }
            None if p.trace => metrics.push(common::Metric {
                name: metric.to_string(),
                value: 0.0,
                unit,
            }),
            None => out.fail(format!("{name} did not measure {metric}")),
        }
    }
    out.metrics = metrics;
    Ok((out, tr))
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Values print with every digit Rust keeps for
/// a round trip; a non-finite value prints as 0 and fails the run.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct() && finite,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
