//! The two closed-loop workloads over the 18 suite programs at full
//! size, one profile call at a time on one thread:
//!
//! * `table1` runs every program under the six Table 1 configurations
//!   back to back through `Profiler::run`;
//! * `stats` runs every program under `combined_hw` the way `pp stats`
//!   does: `Profiler::run_observed` into a fresh registry, then the
//!   analyses (`analysis::hot_context_paths`, `CctStats::compute`) and
//!   `observe::record_outcome`.
//!
//! A run is a sequence of passes over the suite. Untraced runs make only
//! plain passes. Traced runs alternate plain passes with decomposition
//! passes that time each layer's public calls separately, interleaved
//! per program, and compare the two kinds of pass for the tracing
//! overhead. They then price the job engines with a short `fleet` run
//! (see [`ENGINE_SHARE`]).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pp_cct::CctStats;
use pp_core::{analysis, observe, Profiler, RunOutcome};
use pp_instrument::{instrument_program, InstrumentOptions};
use pp_obs::Registry;
use pp_usim::{Machine, MachineConfig, NullSink};
use pp_workloads::Workload;

use crate::common::{
    cct_bytes, check_reference, check_run, fold_shards, ns_per, peak_rss_mb, suite, timed_setup,
    write_shard, Fingerprint, MergeTotals, Outcome, Params, COMBINED, CONFIGS, EVENTS,
};
use crate::stats::{layer_prices, median, sink_residual};
use crate::trace::Tracer;
use crate::yardstick::{normalise, smoothed, Yardstick};

/// Which closed-loop workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Table 1's configuration matrix.
    Table1,
    /// `pp stats`-style observed runs.
    Stats,
}

/// Index of `combined_hw` in [`CONFIGS`].
const COMBINED_IDX: usize = 5;

/// Copies of each program's CCT folded together at the end of a run.
const MERGE_SHARDS: usize = 4;

/// CCT threshold of the hot-context analysis (`pp stats`' default).
const HOT_THRESHOLD: f64 = 0.01;

/// Share of a traced run's seconds given to a `fleet` run of the same
/// seed, which measures the per-layer metrics of the service, the
/// supervisor and a job's pipeline ([`crate::FLEET_LAYER`]). Untraced
/// runs do not make it.
pub const ENGINE_SHARE: f64 = 0.25;

/// The profile calls of one kind of pass, in order, each with the
/// yardstick speed measured just before it.
#[derive(Default)]
struct Calls {
    /// (program, configuration), raw seconds, yardstick ns per µop.
    calls: Vec<((usize, usize), f64, f64)>,
    uops: BTreeMap<(usize, usize), u64>,
    /// Host-normalised seconds by (program, configuration), filled by
    /// [`Calls::finish`].
    secs: BTreeMap<(usize, usize), Vec<f64>>,
    total_secs: f64,
}

impl Calls {
    fn add(&mut self, key: (usize, usize), took: Duration, speed: f64, uops: u64) {
        self.calls.push((key, took.as_secs_f64(), speed));
        self.uops.insert(key, uops);
        self.total_secs += took.as_secs_f64();
    }

    /// Normalises every call by the smoothed yardstick speed around it.
    /// Suite totals then take each call's time as its median over the
    /// passes, which a stray slow call moves less than a sum.
    fn finish(&mut self) {
        let speeds: Vec<f64> = self.calls.iter().map(|c| c.2).collect();
        for (&(key, raw, _), speed) in self.calls.iter().zip(smoothed(&speeds)) {
            self.secs
                .entry(key)
                .or_default()
                .push(normalise(raw, speed));
        }
    }

    /// The median yardstick speed over these calls.
    fn yardstick(&self) -> f64 {
        let speeds: Vec<f64> = self.calls.iter().map(|c| c.2).collect();
        if speeds.is_empty() {
            0.0
        } else {
            median(&speeds)
        }
    }

    /// Every sample, in milliseconds.
    fn samples_ms(&self) -> Vec<f64> {
        self.secs.values().flatten().map(|s| s * 1e3).collect()
    }

    /// One pass over the suite, each call at its median time.
    fn median_pass_secs(&self) -> f64 {
        self.secs.values().map(|v| median(v)).sum()
    }

    fn ns_per_uop(&self) -> f64 {
        ns_per(self.median_pass_secs(), self.uops.values().sum())
    }

    /// Passes made: every call is made once per pass.
    fn passes(&self) -> u64 {
        self.secs
            .values()
            .map(|v| v.len() as u64)
            .max()
            .unwrap_or(0)
    }
}

/// Per-configuration sums of the decomposition passes.
#[derive(Default, Clone, Copy)]
struct Layers {
    instrument: f64,
    decode: f64,
    null_sim: f64,
    null_uops: u64,
    run: f64,
    run_uops: u64,
    cycles: u64,
}

/// What the decomposition passes measure.
#[derive(Default)]
struct Decomposition {
    passes: u32,
    per_config: [Layers; 6],
    /// Reference-interpreter seconds and the optimized `combined_hw`
    /// seconds of the same programs.
    reference: f64,
    reference_base: f64,
    /// `stats`: unobserved and observed `combined_hw` run seconds.
    unobserved: f64,
    observed: f64,
    analysis_ms: Vec<f64>,
    registry_entries: Vec<f64>,
    /// Profile calls timed in these passes, for the tracing overhead.
    calls: Calls,
}

struct Ctx<'a> {
    kind: Kind,
    programs: &'a [Workload],
    profiler: Profiler,
    yard: &'a Yardstick,
    next_id: u64,
    /// Fingerprint of each (program, configuration) from the first pass.
    first: Vec<[Option<Fingerprint>; 6]>,
    /// Exact counts over the first pass, by metric name.
    exact: BTreeMap<&'static str, f64>,
}

/// One `pp stats`-style call.
struct StatsCall {
    run: Option<RunOutcome>,
    observed_secs: f64,
    analysis_secs: f64,
    registry_entries: usize,
}

impl Ctx<'_> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn configs(&self) -> std::ops::Range<usize> {
        match self.kind {
            Kind::Table1 => 0..CONFIGS.len(),
            Kind::Stats => COMBINED_IDX..COMBINED_IDX + 1,
        }
    }

    /// Untimed bookkeeping after a plain-pass run: the integrity check,
    /// the first pass's fingerprint, and a determinism check of later
    /// passes against it.
    fn after_run(
        &mut self,
        out: &mut Outcome,
        tr: &mut Tracer,
        id: u64,
        prog: usize,
        cfg: usize,
        run: &RunOutcome,
    ) {
        let program = &self.programs[prog].program;
        let what = format!("{} {}", self.programs[prog].name, CONFIGS[cfg].0);
        out.attempted += 1;
        tr.time("integrity.verify_outcome", id, |_| {
            check_run(out, program, run, &what)
        });
        match &self.first[prog][cfg] {
            None => {
                let (fp, _) = tr.time("cct.write", id, |_| Fingerprint::of(run));
                self.first[prog][cfg] = Some(fp);
            }
            Some(fp) => out.check(fp.metrics == run.machine.metrics, || {
                format!("{what}: metrics differ between passes")
            }),
        }
        if cfg == COMBINED_IDX {
            let (bytes, _) = tr.time("cct.write", id, |_| run.cct.as_ref().map(cct_bytes));
            let first = self.first[prog][cfg].as_ref().and_then(|f| f.cct.as_ref());
            out.check(bytes.is_some() && bytes.as_ref() == first, || {
                format!("{what}: CCT bytes differ between passes")
            });
        }
    }

    /// The exact counts the traced run reports, from first-pass runs.
    fn count_exact(&mut self, prog: usize, cfg: usize, run: &RunOutcome) {
        let mut add = |name, v: f64| *self.exact.entry(name).or_insert(0.0) += v;
        if cfg == 1 {
            if let Some(flow) = &run.flow {
                add(
                    "pathprof.paths_executed",
                    flow.total_paths_executed() as f64,
                );
            }
        }
        if cfg == COMBINED_IDX {
            if let Some(cct) = &run.cct {
                add("cct.records", cct.num_records() as f64);
                add("cct.heap_bytes", cct.heap_bytes() as f64);
            }
            if let Some(inst) = &run.instrumented {
                add("static.instrumented", inst.program.static_size() as f64);
                add(
                    "static.original",
                    self.programs[prog].program.static_size() as f64,
                );
            }
        }
    }

    /// One `pp stats`-style call: observed run, analyses, derived
    /// metrics.
    fn stats_call(&self, tr: &mut Tracer, id: u64, prog: usize) -> StatsCall {
        let program = &self.programs[prog].program;
        let mut reg = Registry::new();
        let (run, observed) = tr.time("pp.run_observed", id, |_| {
            self.profiler.run_observed(program, COMBINED, &mut reg)
        });
        let Ok(run) = run else {
            return StatsCall {
                run: None,
                observed_secs: 0.0,
                analysis_secs: 0.0,
                registry_entries: 0,
            };
        };
        let (_, an) = tr.time("analysis", id, |_| {
            if let Some(flow) = &run.flow {
                std::hint::black_box(analysis::hot_paths(flow, HOT_THRESHOLD));
            }
            if let Some(cct) = &run.cct {
                std::hint::black_box(analysis::hot_context_paths(cct, HOT_THRESHOLD));
                std::hint::black_box(CctStats::compute(cct));
            }
        });
        tr.time("observe.record_outcome", id, |_| {
            observe::record_outcome(&mut reg, &run)
        });
        StatsCall {
            run: Some(run),
            observed_secs: observed.as_secs_f64(),
            analysis_secs: an.as_secs_f64(),
            registry_entries: reg.iter().count(),
        }
    }

    /// One pass of the workload's calls; `calls` is `None` for the
    /// untimed warm-up pass.
    fn plain_pass(&mut self, out: &mut Outcome, tr: &mut Tracer, mut calls: Option<&mut Calls>) {
        for prog in 0..self.programs.len() {
            for cfg in self.configs() {
                let id = self.id();
                let program = &self.programs[prog].program;
                let speed = if calls.is_some() {
                    self.yard.measure()
                } else {
                    0.0
                };
                let (run, took) = match self.kind {
                    Kind::Table1 => {
                        let (r, took) =
                            tr.time("pp.run", id, |_| self.profiler.run(program, CONFIGS[cfg].1));
                        (r.ok(), took)
                    }
                    Kind::Stats => {
                        let (call, took) =
                            tr.time("stats.call", id, |tr| self.stats_call(tr, id, prog));
                        (call.run, took)
                    }
                };
                let Some(run) = run else {
                    out.attempted += 1;
                    out.fail(format!(
                        "{} {}: instrumentation failed",
                        self.programs[prog].name, CONFIGS[cfg].0
                    ));
                    continue;
                };
                if let Some(calls) = calls.as_deref_mut() {
                    calls.add((prog, cfg), took, speed, run.machine.uops);
                }
                self.after_run(out, tr, id, prog, cfg, &run);
            }
        }
    }

    /// Times each layer's public calls separately for every program,
    /// then the profiled runs of every configuration back to back.
    ///
    /// Both workloads make both halves (the Table 1 configurations, then
    /// the observed and unobserved `combined_hw` runs), so every
    /// per-layer metric is measured on either; only the calls of the
    /// run's own workload count towards the tracing overhead.
    fn decomposition_pass(&mut self, out: &mut Outcome, tr: &mut Tracer, d: &mut Decomposition) {
        let mc = MachineConfig::default();
        d.passes += 1;
        let programs = self.programs;
        for (prog, w) in programs.iter().enumerate() {
            let id = self.id();
            let (program, name) = (&w.program, &w.name);
            // Each layer of every Table 1 configuration on its own.
            for (cfg, (cname, config)) in CONFIGS.iter().enumerate() {
                let l = &mut d.per_config[cfg];
                let inst = match config.mode() {
                    None => None,
                    Some(mode) => {
                        let opts = InstrumentOptions::new(mode).with_events(EVENTS.0, EVENTS.1);
                        let (inst, took) =
                            tr.time("instrument", id, |_| instrument_program(program, opts));
                        l.instrument += took.as_secs_f64();
                        match inst {
                            Ok(i) => Some(i),
                            Err(e) => {
                                out.attempted += 1;
                                out.fail(format!("{name} {cname}: instrument failed: {e}"));
                                continue;
                            }
                        }
                    }
                };
                let target = inst.as_ref().map_or(program, |i| &i.program);
                let (mut machine, took) = tr.time("usim.decode", id, |_| Machine::new(target, mc));
                l.decode += took.as_secs_f64();
                let (r, took) = tr.time("usim.run_null_sink", id, |_| machine.run(&mut NullSink));
                out.check(r.is_ok(), || {
                    format!("{name} {cname}: NullSink run faulted")
                });
                l.null_sim += took.as_secs_f64();
                l.null_uops += r.map_or(0, |r| r.uops);
            }
            for (cfg, (cname, config)) in CONFIGS.iter().enumerate() {
                let speed = self.yard.measure();
                let (run, took) = tr.time("pp.run", id, |_| self.profiler.run(program, *config));
                out.attempted += 1;
                match run {
                    Ok(run) => {
                        check_run(out, program, &run, &format!("{name} {cname}"));
                        let l = &mut d.per_config[cfg];
                        l.run += took.as_secs_f64();
                        l.run_uops += run.machine.uops;
                        l.cycles += run.cycles();
                        if self.kind == Kind::Table1 {
                            d.calls.add((prog, cfg), took, speed, run.machine.uops);
                        }
                        if cfg == COMBINED_IDX {
                            d.reference_base += took.as_secs_f64();
                        }
                        if d.passes == 1 {
                            self.count_exact(prog, cfg, &run);
                        }
                    }
                    Err(e) => out.fail(format!("{name} {cname}: {e}")),
                }
            }
            let (r, took) = tr.time("usim.run_reference", id, |_| {
                self.profiler.run_reference(program, COMBINED)
            });
            out.check(r.is_ok(), || format!("{name}: reference run failed"));
            d.reference += took.as_secs_f64();
            // The unobserved and observed `combined_hw` runs.
            let (run, unobserved) = tr.time("pp.run", id, |_| self.profiler.run(program, COMBINED));
            out.check(run.is_ok(), || format!("{name}: unobserved run failed"));
            let speed = self.yard.measure();
            let (call, took) = tr.time("stats.call", id, |tr| self.stats_call(tr, id, prog));
            out.attempted += 1;
            let Some(r) = call.run else {
                out.fail(format!("{name}: observed run failed"));
                continue;
            };
            check_run(out, program, &r, name);
            d.unobserved += unobserved.as_secs_f64();
            d.observed += call.observed_secs;
            d.analysis_ms.push(call.analysis_secs * 1e3);
            d.registry_entries.push(call.registry_entries as f64);
            if self.kind == Kind::Stats {
                d.calls
                    .add((prog, COMBINED_IDX), took, speed, r.machine.uops);
            }
        }
    }
}

/// Runs `kind` with `p`, recording metrics and checks into `out`.
pub fn run(kind: Kind, p: &Params, out: &mut Outcome, tr: &mut Tracer, yard: &Yardstick) {
    let (programs, setup_s) = timed_setup(yard, || suite(p.seed, p.scale, |_| {}), drop);
    let mut ctx = Ctx {
        kind,
        programs: &programs,
        profiler: Profiler::default(),
        yard,
        next_id: 0,
        first: vec![Default::default(); programs.len()],
        exact: BTreeMap::new(),
    };

    let mut plain = Calls::default();
    let mut d = Decomposition::default();
    // Plain passes keep no spans, so comparing them with the traced
    // passes prices the tracing itself. The first pass warms the
    // allocator and caches and records the fingerprints; it is checked
    // but not timed.
    let was = tr.enabled();
    tr.set_enabled(false);
    ctx.plain_pass(out, tr, None);
    let closed_secs = if p.trace {
        p.seconds * (1.0 - ENGINE_SHARE)
    } else {
        p.seconds
    };
    let deadline = Duration::from_secs_f64(closed_secs);
    let start = Instant::now();
    let min_passes = if p.trace { 2 } else { 1 };
    let mut pass = 0;
    while pass < min_passes || start.elapsed() < deadline {
        if p.trace && pass % 2 == 1 {
            tr.set_enabled(was);
            ctx.decomposition_pass(out, tr, &mut d);
            tr.set_enabled(false);
        } else {
            ctx.plain_pass(out, tr, Some(&mut plain));
        }
        pass += 1;
    }
    tr.set_enabled(was);
    plain.finish();
    d.calls.finish();

    // Fold each program's CCT from four runs, as `pp merge` folds a
    // program's profiles from repeated runs. Every pass produced the same
    // bytes (checked above), so the shards are copies of the first
    // pass's.
    let dir = p.state_dir(match kind {
        Kind::Table1 => "table1",
        Kind::Stats => "stats",
    });
    let mut merges = MergeTotals::default();
    if std::fs::create_dir_all(&dir).is_ok() {
        for (prog, w) in programs.iter().enumerate() {
            let Some(bytes) = ctx.first[prog][COMBINED_IDX]
                .as_ref()
                .and_then(|f| f.cct.clone())
            else {
                continue;
            };
            let mut paths: Vec<PathBuf> = Vec::new();
            for k in 0..MERGE_SHARDS {
                let path = dir.join(format!("p{prog:02}-{k:03}.cct"));
                if write_shard(out, &path, &bytes) {
                    paths.push(path);
                }
            }
            if !paths.is_empty() {
                let id = ctx.id();
                fold_shards(out, tr, yard, id, &paths, &mut merges, &w.name);
            }
        }
    } else {
        out.check(false, || format!("cannot create {}", dir.display()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let rss = peak_rss_mb();

    // Output checks against the reference interpreter (and, on `stats`,
    // against unobserved runs), plus the base runs `stats` needs for the
    // simulated overhead.
    let mut base_cycles = 0u64;
    let mut combined_cycles = 0u64;
    for (prog, w) in programs.iter().enumerate() {
        for cfg in ctx.configs() {
            let Some(fp) = ctx.first[prog][cfg].clone() else {
                continue;
            };
            let what = format!("{} {}", w.name, CONFIGS[cfg].0);
            let id = ctx.id();
            tr.time("check.reference", id, |_| {
                check_reference(out, &ctx.profiler, &w.program, CONFIGS[cfg].1, &fp, &what)
            });
            match cfg {
                0 => base_cycles += fp.metrics.get(pp_ir::HwEvent::Cycles),
                COMBINED_IDX => combined_cycles += fp.metrics.get(pp_ir::HwEvent::Cycles),
                _ => {}
            }
            if kind == Kind::Stats {
                let unobserved = ctx.profiler.run(&w.program, COMBINED);
                let same = unobserved.as_ref().is_ok_and(|r| Fingerprint::of(r) == fp);
                out.check(same, || {
                    format!("{what}: observed and unobserved profiles differ")
                });
                let base = ctx.profiler.run(&w.program, CONFIGS[0].1);
                out.check(base.as_ref().is_ok_and(|r| r.is_complete()), || {
                    format!("{}: base run failed", w.name)
                });
                base_cycles += base.map_or(0, |r| r.cycles());
            }
        }
    }

    if p.trace {
        report_layers(out, &d, &plain, setup_s);
        out.metric("yardstick.ns_per_uop", plain.yardstick(), "ns");
        let exact = &ctx.exact;
        let get = |k: &str| exact.get(k).copied().unwrap_or(0.0);
        out.metric(
            "instrument.growth_x",
            get("static.instrumented") / get("static.original").max(1.0),
            "x",
        );
        for name in ["cct.records", "cct.heap_bytes", "pathprof.paths_executed"] {
            out.metric(
                name,
                get(name),
                if name == "cct.heap_bytes" {
                    "bytes"
                } else {
                    "count"
                },
            );
        }
        merges.report(out);
        let engines = Params {
            seconds: p.seconds * ENGINE_SHARE,
            ..p.clone()
        };
        let mut fleet_out = Outcome::default();
        tr.set_id_base(ctx.next_id + 1);
        crate::fleet::run(&engines, &mut fleet_out, tr, yard);
        out.absorb(fleet_out, &crate::FLEET_LAYER);
        return;
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("ns_per_uop", plain.ns_per_uop(), "ns");
    out.notes.push(format!(
        "raw host ns per uop summed over every timed call: {:.4}; yardstick median {:.4} ns per uop",
        ns_per(plain.total_secs, plain.uops.values().sum::<u64>() * plain.passes()),
        plain.yardstick()
    ));
    out.timing("profile_ms", &plain.samples_ms(), "ms");
    out.metric(
        "sim_overhead_x",
        combined_cycles as f64 / base_cycles.max(1) as f64,
        "x",
    );
    out.metric("peak_rss_mb", rss, "MiB");
}

/// The per-layer metrics of a traced run.
fn report_layers(out: &mut Outcome, d: &Decomposition, plain: &Calls, setup_s: f64) {
    out.metric("workloads.build_ms", setup_s * 1e3, "ms");
    out.metric(
        "trace.overhead_pct",
        (d.calls.ns_per_uop() / plain.ns_per_uop() - 1.0) * 100.0,
        "%",
    );
    out.metric("obs.host_x", d.observed / d.unobserved.max(1e-12), "x");
    out.metric("analysis.ms", median(&nonempty(&d.analysis_ms)), "ms");
    out.metric(
        "obs.registry_entries",
        median(&nonempty(&d.registry_entries)),
        "count",
    );
    let l = &d.per_config;
    let passes = f64::from(d.passes.max(1));
    let instrumented = (CONFIGS.len() - 1) as f64;
    let inst: f64 = l.iter().map(|c| c.instrument).sum();
    let dec: f64 = l.iter().map(|c| c.decode).sum();
    // Per configuration pass over the suite.
    out.metric("instrument.ms", inst * 1e3 / passes / instrumented, "ms");
    out.metric(
        "usim.decode_ms",
        dec * 1e3 / passes / CONFIGS.len() as f64,
        "ms",
    );
    out.metric(
        "usim.base_ns_per_uop",
        ns_per(l[0].null_sim, l[0].null_uops),
        "ns",
    );
    let mut host_x = BTreeMap::new();
    let mut sim_x = BTreeMap::new();
    for (cfg, (name, _)) in CONFIGS.iter().enumerate().skip(1) {
        let c = &l[cfg];
        out.metric(
            format!("usim.inst_ns_per_uop.{name}"),
            ns_per(c.null_sim, c.null_uops),
            "ns",
        );
        let residual = sink_residual(c.run, c.instrument, c.decode, c.null_sim);
        out.metric(
            format!("sink.ns_per_uop.{name}"),
            ns_per(residual, c.run_uops),
            "ns",
        );
        host_x.insert(*name, c.run / l[0].run.max(1e-12));
        sim_x.insert(*name, c.cycles as f64 / l[0].cycles.max(1) as f64);
    }
    for (name, x) in &host_x {
        out.metric(format!("host_x.{name}"), *x, "x");
    }
    for (name, x) in &sim_x {
        out.metric(format!("sim_x.{name}"), *x, "x");
    }
    for (layer, price) in layer_prices(&host_x) {
        out.metric(format!("price.{layer}.host_x"), price, "x");
    }
    for (layer, price) in layer_prices(&sim_x) {
        out.metric(format!("price.{layer}.sim_x"), price, "x");
    }
    out.metric(
        "usim.ref_speedup",
        d.reference / d.reference_base.max(1e-12),
        "x",
    );
    let per_pass = |v: u64| (v as f64 / passes).round();
    for (cfg, (name, _)) in CONFIGS.iter().enumerate() {
        out.metric(
            format!("usim.uops.{name}"),
            per_pass(l[cfg].run_uops),
            "count",
        );
    }
}

fn nonempty(v: &[f64]) -> Vec<f64> {
    if v.is_empty() {
        vec![0.0]
    } else {
        v.to_vec()
    }
}
