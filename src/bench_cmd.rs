//! The `pp bench` subcommand: times the simulate+CCT+paths pipeline over
//! the workload suite and records the trajectory in `BENCH_<date>.json`.
//!
//! Every case runs the paper's combined configuration (path profiling
//! *and* a calling context tree with hardware metrics) — the heaviest
//! pipeline the profiler has, and the one the predecoded micro-op arena
//! was built for. When the binary carries the `reference` feature (the
//! default), each case also runs through the pre-predecoding
//! tree-walking interpreter, so the report carries a before/after
//! wall-time comparison of the same profile computation. Wall times are
//! best-of-N (`--repeat`, default 3): the simulation is deterministic,
//! so the minimum over repeats measures the pipeline, not the host's
//! scheduling noise.
//!
//! The JSON file is an append-friendly trajectory: one file per day,
//! each holding the totals plus per-case numbers, so future PRs can
//! diff `BENCH_*.json` files to see whether the hot path got faster.
//! Re-running `pp bench` on the same day *merges* with the existing
//! file when the (date, pipeline, scale) key matches: per-case wall
//! times keep the best over both runs and the repeat count accumulates,
//! so a noisy rerun can only sharpen the trajectory, never blur it.
//! The file also carries a `phases_us` object — per-phase wall time
//! from one extra *untimed* traced pass over the suite, taken after the
//! stopwatch runs so span overhead never contaminates the timed
//! numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use pp::ir::HwEvent;
use pp::obs::Recorder as _;
use pp::profiler::{PpError, Profiler, RunConfig};

use crate::Args;

/// The `"pipeline"` tag in the trajectory file — part of the merge key.
const PIPELINE: &str = "combined (simulate + CCT + path counters)";

/// What `pp bench` measures for one workload under one pipeline.
#[derive(Clone, Copy, Debug, Default)]
struct PipelineSample {
    /// Host seconds for instrument + simulate + profile.
    wall_s: f64,
    /// Simulated cycles the run retired.
    sim_cycles: u64,
    /// Micro-ops the run dispatched — the denominator of the per-uop
    /// cost the trajectory guards.
    uops: u64,
    /// Simulated bytes of the CCT heap at exit.
    cct_bytes: u64,
    /// CCT records allocated.
    cct_records: u64,
}

/// One workload's measurements: the optimized pipeline and, when the
/// `reference` feature is in, the tree-walking baseline.
struct CaseResult {
    name: String,
    optimized: PipelineSample,
    reference: Option<PipelineSample>,
}

fn sample(
    profiler: &Profiler,
    program: &pp::ir::Program,
    config: RunConfig,
    run: impl FnOnce(
        &Profiler,
        &pp::ir::Program,
        RunConfig,
    ) -> Result<pp::profiler::RunOutcome, pp::profiler::ProfileError>,
) -> Result<PipelineSample, PpError> {
    let t = Instant::now();
    let outcome = run(profiler, program, config).map_err(|e| PpError::Usage(e.to_string()))?;
    let wall_s = t.elapsed().as_secs_f64();
    if let Some(fault) = outcome.fault {
        if matches!(fault, pp::usim::ExecError::LimitExceeded(_)) {
            pp::obs::warn!(
                "bench case hit a guest limit ({fault}); \
                 raise --fuel/--deadline or pass --deadline 0"
            );
        }
        return Err(PpError::Aborted(fault));
    }
    let (cct_bytes, cct_records) = outcome
        .cct
        .as_ref()
        .map(|c| (c.heap_bytes(), c.num_records() as u64))
        .unwrap_or((0, 0));
    Ok(PipelineSample {
        wall_s,
        sim_cycles: outcome.cycles(),
        uops: outcome.machine.uops,
        cct_bytes,
        cct_records,
    })
}

/// Runs `sample` `repeat` times and keeps the fastest wall time (the
/// simulated statistics are identical across repeats — the run is
/// deterministic).
fn sample_best(
    repeat: usize,
    profiler: &Profiler,
    program: &pp::ir::Program,
    config: RunConfig,
    run: impl Fn(
        &Profiler,
        &pp::ir::Program,
        RunConfig,
    ) -> Result<pp::profiler::RunOutcome, pp::profiler::ProfileError>,
) -> Result<PipelineSample, PpError> {
    let mut best: Option<PipelineSample> = None;
    for _ in 0..repeat.max(1) {
        let s = sample(profiler, program, config, &run)?;
        best = Some(match best {
            Some(b) if b.wall_s <= s.wall_s => b,
            _ => s,
        });
    }
    Ok(best.expect("at least one repeat"))
}

/// Runs the suite, prints the comparison table, and (outside smoke mode)
/// writes the `BENCH_<date>.json` trajectory entry.
///
/// # Errors
///
/// Any case that fails to instrument, faults mid-run, or cannot write
/// the JSON file fails the whole command — CI's `pp bench --smoke` step
/// relies on that.
pub fn run_bench(args: &Args) -> Result<(), PpError> {
    args.operands::<0>()?;
    let smoke = args.on("--smoke");
    let scale = if smoke {
        args.scale().min(0.05)
    } else {
        args.scale()
    };
    let events = args.events()?;
    if let Some(path) = args.str("--emit-meta") {
        return emit_meta(events, scale, path);
    }
    let cases = pp::bench::cases_at(scale);
    // A conservative deadline by default so a wedged case cannot hang
    // the bench; timed runs therefore measure the hot loop *with* its
    // limit checks armed.
    let profiler = Profiler::new(pp::usim::MachineConfig::default())
        .with_limits(args.guest_limits(crate::ACCOUNTING_DEADLINE_S));
    let config = RunConfig::CombinedHw { events };

    // Cases run strictly one at a time, and each pipeline gets its own
    // pass over the whole suite. Timing under `bench::par_map` would let
    // concurrently scheduled cases steal CPU from whichever pipeline
    // happens to be on the stopwatch, and interleaving the two pipelines
    // per case lets the reference interpreter's much larger allocations
    // perturb the allocator and page state that the optimized pipeline
    // is then timed against.
    // The simulation is deterministic, so repeats differ only by host
    // scheduling noise; best-of-N strips it.
    let repeat = if smoke {
        1
    } else {
        args.get("--repeat").unwrap_or(3)
    };
    let optimized: Vec<PipelineSample> = cases
        .iter()
        .map(|case| {
            sample_best(repeat, &profiler, &case.program, config, |p, prog, c| {
                p.run(prog, c)
            })
        })
        .collect::<Result<_, _>>()?;
    #[cfg(feature = "reference")]
    let reference: Vec<Option<PipelineSample>> = cases
        .iter()
        .map(|case| {
            sample_best(repeat, &profiler, &case.program, config, |p, prog, c| {
                p.run_reference(prog, c)
            })
            .map(Some)
        })
        .collect::<Result<_, _>>()?;
    #[cfg(not(feature = "reference"))]
    let reference: Vec<Option<PipelineSample>> = vec![None; cases.len()];
    let results: Vec<CaseResult> = cases
        .iter()
        .zip(optimized)
        .zip(reference)
        .map(|((case, optimized), reference)| CaseResult {
            name: case.name.clone(),
            optimized,
            reference,
        })
        .collect();

    // Totals.
    let t = totals(&results);
    let ns_per_uop = t.ns_per_uop();
    let Totals {
        opt_wall,
        ref_wall,
        sim_cycles,
        peak_cct,
        have_ref,
        ..
    } = t;
    let speedup = if have_ref && opt_wall > 0.0 {
        ref_wall / opt_wall
    } else {
        0.0
    };

    println!("== pp bench: combined pipeline (simulate + CCT + path counters), scale {scale} ==");
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>12} {:>10} {:>8}",
        "benchmark", "wall ms", "ref ms", "speedup", "sim Mcycles", "cct KB", "records"
    );
    for r in &results {
        let (ref_ms, case_speedup) = match r.reference {
            Some(s) => (
                format!("{:.1}", s.wall_s * 1e3),
                format!("{:.2}x", s.wall_s / r.optimized.wall_s.max(1e-12)),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<14} {:>10.1} {:>10} {:>8} {:>12.1} {:>10.1} {:>8}",
            r.name,
            r.optimized.wall_s * 1e3,
            ref_ms,
            case_speedup,
            r.optimized.sim_cycles as f64 / 1e6,
            r.optimized.cct_bytes as f64 / 1024.0,
            r.optimized.cct_records,
        );
    }
    println!(
        "\ntotals: {:.3}s optimized | {} | {:.1} M simulated cycles/s | {:.1} ns/uop | peak CCT {:.1} KB",
        opt_wall,
        if have_ref {
            format!("{ref_wall:.3}s reference ({speedup:.2}x speedup)")
        } else {
            "reference pipeline not built (enable the `reference` feature)".to_string()
        },
        sim_cycles as f64 / opt_wall.max(1e-12) / 1e6,
        ns_per_uop,
        peak_cct as f64 / 1024.0,
    );

    if let Some(check_path) = args.str("--check") {
        return check_against(
            check_path,
            args.get("--tolerance").unwrap_or(0.02),
            opt_wall,
            speedup,
            have_ref,
            ns_per_uop,
        );
    }

    let path = match (args.str("--out"), smoke) {
        (Some(p), _) => Some(p.to_string()),
        (None, true) => None,
        (None, false) => Some(format!("BENCH_{}.json", today_utc())),
    };
    if let Some(path) = path {
        // One extra untimed traced pass: the per-phase breakdown. Taken
        // after every stopwatch run so the timed numbers never carry
        // span-recording overhead.
        let phases = phase_pass(&cases, &profiler, config);

        // Merge with an existing same-day, same-config trajectory:
        // per-case best-of wall times, accumulated repeat count.
        let mut merged = results;
        let mut repeat_total = repeat;
        match read_trajectory(&path) {
            Some(prev)
                if prev.date == today_utc()
                    && prev.pipeline == PIPELINE
                    && (prev.scale - scale).abs() < 1e-12 =>
            {
                merge_cases(&mut merged, &prev);
                repeat_total += prev.repeat;
                pp::obs::info!(
                    "merged with existing {path}: keeping per-case best of {repeat_total} repeats"
                );
            }
            Some(_) => {
                pp::obs::warn!(
                    "existing {path} holds a different (date, pipeline, scale) run; replacing it"
                );
            }
            None => {}
        }
        let t = totals(&merged);
        let json = render_json(scale, repeat_total, &merged, &t, &phases);
        std::fs::write(&path, json).map_err(|e| PpError::io(&path, e))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Suite-wide aggregates of a result set.
struct Totals {
    opt_wall: f64,
    ref_wall: f64,
    sim_cycles: u64,
    sim_uops: u64,
    peak_cct: u64,
    have_ref: bool,
}

impl Totals {
    /// Host nanoseconds the optimized pipeline spends per simulated
    /// micro-op — the suite-wide unit cost the trajectory guards.
    fn ns_per_uop(&self) -> f64 {
        self.opt_wall * 1e9 / self.sim_uops.max(1) as f64
    }
}

fn totals(results: &[CaseResult]) -> Totals {
    Totals {
        opt_wall: results.iter().map(|r| r.optimized.wall_s).sum(),
        ref_wall: results
            .iter()
            .map(|r| r.reference.map(|s| s.wall_s).unwrap_or(0.0))
            .sum(),
        sim_cycles: results.iter().map(|r| r.optimized.sim_cycles).sum(),
        sim_uops: results.iter().map(|r| r.optimized.uops).sum(),
        peak_cct: results
            .iter()
            .map(|r| r.optimized.cct_bytes)
            .max()
            .unwrap_or(0),
        have_ref: results.iter().all(|r| r.reference.is_some()) && !results.is_empty(),
    }
}

/// One untimed pass over the suite with span recording on, aggregating
/// wall time by phase (instrument / decode / simulate / path_analyze).
fn phase_pass(
    cases: &[pp::profiler::experiment::BenchCase],
    profiler: &Profiler,
    config: RunConfig,
) -> BTreeMap<&'static str, u64> {
    let was_enabled = pp::obs::trace::enabled();
    pp::obs::trace::enable(true);
    let _ = pp::obs::trace::take_events();
    for case in cases {
        let _ = profiler.run(&case.program, config);
    }
    let (events, dropped) = pp::obs::trace::take_events();
    pp::obs::trace::enable(was_enabled);
    if dropped > 0 {
        pp::obs::warn!("phase pass overflowed the trace buffer ({dropped} spans dropped)");
    }
    pp::obs::trace::totals_by_name(&events)
}

/// The merge-relevant slice of an existing trajectory file.
struct PrevTrajectory {
    date: String,
    pipeline: String,
    scale: f64,
    repeat: usize,
    /// Suite total optimized wall seconds.
    wall_s: f64,
    /// Reference-over-optimized speedup, when the file has one.
    speedup: Option<f64>,
    /// Host ns per simulated micro-op; absent in trajectories recorded
    /// before the field existed (the guard then skips that check).
    sim_ns_per_uop: Option<f64>,
    /// name → (wall_s, reference_wall_s).
    cases: BTreeMap<String, (f64, Option<f64>)>,
}

/// Parses an existing `BENCH_*.json`; `None` when the file is missing
/// or does not look like a trajectory (then it is simply overwritten).
fn read_trajectory(path: &str) -> Option<PrevTrajectory> {
    let text = std::fs::read_to_string(path).ok()?;
    let v = pp::obs::json::parse(&text).ok()?;
    let mut cases = BTreeMap::new();
    for case in v.get("cases")?.as_arr()? {
        let name = case.get("name")?.as_str()?.to_string();
        let wall = case.get("wall_s")?.as_f64()?;
        let reference = case.get("reference_wall_s").and_then(|r| r.as_f64());
        cases.insert(name, (wall, reference));
    }
    Some(PrevTrajectory {
        date: v.get("date")?.as_str()?.to_string(),
        pipeline: v.get("pipeline")?.as_str()?.to_string(),
        scale: v.get("scale")?.as_f64()?,
        repeat: v.get("repeat")?.as_f64()? as usize,
        wall_s: v.get("wall_s")?.as_f64()?,
        speedup: v.get("speedup").and_then(|s| s.as_f64()),
        sim_ns_per_uop: v.get("sim_ns_per_uop").and_then(|s| s.as_f64()),
        cases,
    })
}

/// `pp bench --check`: a regression guard. Compares this run's totals
/// against a recorded trajectory and fails beyond `tolerance` — only in
/// the slow direction; getting faster never fails the guard. Never
/// writes the trajectory, so CI can run it against the checked-in
/// `BENCH_*.json` without dirtying the tree.
fn check_against(
    path: &str,
    tolerance: f64,
    cur_wall: f64,
    cur_speedup: f64,
    have_ref: bool,
    cur_ns_per_uop: f64,
) -> Result<(), PpError> {
    let prev = read_trajectory(path).ok_or_else(|| {
        PpError::Usage(format!(
            "--check: `{path}` is not a readable trajectory file"
        ))
    })?;
    let wall_delta = (cur_wall - prev.wall_s) / prev.wall_s.max(1e-12);
    println!(
        "check vs {path}: wall {:.3}s vs {:.3}s recorded ({:+.1}%)",
        cur_wall,
        prev.wall_s,
        wall_delta * 100.0
    );
    let mut failures = Vec::new();
    if wall_delta > tolerance {
        failures.push(format!(
            "wall time regressed {:.1}% (> {:.1}% tolerance)",
            wall_delta * 100.0,
            tolerance * 100.0
        ));
    }
    if let (true, Some(prev_speedup)) = (have_ref, prev.speedup) {
        let drop = (prev_speedup - cur_speedup) / prev_speedup.max(1e-12);
        println!(
            "check vs {path}: speedup {cur_speedup:.2}x vs {prev_speedup:.2}x recorded ({:+.1}%)",
            -drop * 100.0
        );
        if drop > tolerance {
            failures.push(format!(
                "speedup regressed {:.1}% (> {:.1}% tolerance)",
                drop * 100.0,
                tolerance * 100.0
            ));
        }
    }
    // The per-uop unit cost: total wall normalized by simulated work, so
    // the guard keeps meaning even when the suite grows or shrinks.
    if let Some(prev_ns) = prev.sim_ns_per_uop {
        let delta = (cur_ns_per_uop - prev_ns) / prev_ns.max(1e-12);
        println!(
            "check vs {path}: {cur_ns_per_uop:.1} ns/uop vs {prev_ns:.1} recorded ({:+.1}%)",
            delta * 100.0
        );
        if delta > tolerance {
            failures.push(format!(
                "per-uop cost regressed {:.1}% (> {:.1}% tolerance)",
                delta * 100.0,
                tolerance * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!("check passed (tolerance {:.1}%)", tolerance * 100.0);
        Ok(())
    } else {
        Err(PpError::Usage(format!(
            "bench check failed against {path}: {}",
            failures.join("; ")
        )))
    }
}

/// `pp bench --emit-meta`: regenerates the self-hosted PGO input. Each
/// suite workload is instrumented exactly as the timed bench runs it
/// (the combined pipeline), then replayed with block tracing to project
/// its dynamic micro-op mix; the suite-wide merge is written as
/// registry-JSON `uop.*` counters. The checked-in copy lives at
/// `crates/usim/meta/uop_meta.json` and is what the dispatch layout is
/// derived from.
fn emit_meta(events: (HwEvent, HwEvent), scale: f64, path: &str) -> Result<(), PpError> {
    let cases = pp::bench::cases_at(scale);
    let config = RunConfig::CombinedHw { events };
    let mode = config.mode().expect("combined pipeline instruments");
    let mut meta = pp::usim::MetaProfile::default();
    for case in &cases {
        let options = pp::instrument::InstrumentOptions::new(mode).with_events(events.0, events.1);
        let inst = pp::instrument::instrument_program(&case.program, options)
            .map_err(|e| PpError::Usage(format!("{}: {e}", case.name)))?;
        let one = pp::usim::MetaProfile::collect(&inst.program, pp::usim::MachineConfig::default())
            .map_err(PpError::Aborted)?;
        meta.merge(&one);
    }

    let total = meta.total();
    println!("== pp bench --emit-meta: dynamic micro-op mix, scale {scale} ==");
    println!("{:<14} {:>14} {:>7}", "uop", "dispatches", "share");
    for (name, n) in meta.ranked_uops() {
        println!(
            "{:<14} {:>14} {:>6.2}%",
            name,
            n,
            n as f64 / total.max(1) as f64 * 100.0
        );
    }

    let mut reg = pp::obs::Registry::new();
    reg.counter("meta.scale_milli", (scale * 1000.0) as u64);
    reg.counter("meta.cases", cases.len() as u64);
    meta.record_to(&mut reg);
    std::fs::write(path, reg.to_json()).map_err(|e| PpError::io(path, e))?;
    println!(
        "\nwrote {path} ({total} dynamic micro-ops over {} cases)",
        cases.len()
    );
    Ok(())
}

/// Folds a previous same-key trajectory into `results`: each case keeps
/// the *fastest* wall time either run saw (the simulated statistics are
/// deterministic, so only the host timings differ).
fn merge_cases(results: &mut [CaseResult], prev: &PrevTrajectory) {
    for r in results.iter_mut() {
        let Some(&(prev_wall, prev_ref)) = prev.cases.get(&r.name) else {
            continue;
        };
        r.optimized.wall_s = r.optimized.wall_s.min(prev_wall);
        if let (Some(s), Some(p)) = (r.reference.as_mut(), prev_ref) {
            s.wall_s = s.wall_s.min(p);
        }
    }
}

fn render_json(
    scale: f64,
    repeat: usize,
    results: &[CaseResult],
    t: &Totals,
    phases: &BTreeMap<&'static str, u64>,
) -> String {
    let (opt_wall, ref_wall) = (t.opt_wall, t.ref_wall);
    let have_ref = results.iter().all(|r| r.reference.is_some()) && !results.is_empty();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"date\": \"{}\",", today_utc());
    let _ = writeln!(s, "  \"scale\": {scale},");
    let _ = writeln!(s, "  \"repeat\": {repeat},");
    let _ = writeln!(s, "  \"pipeline\": \"{PIPELINE}\",");
    let _ = writeln!(s, "  \"wall_s\": {opt_wall:.6},");
    if have_ref {
        let _ = writeln!(s, "  \"reference_wall_s\": {ref_wall:.6},");
        let _ = writeln!(s, "  \"speedup\": {:.3},", ref_wall / opt_wall.max(1e-12));
    }
    let _ = writeln!(s, "  \"sim_cycles\": {},", t.sim_cycles);
    let _ = writeln!(
        s,
        "  \"sim_cycles_per_sec\": {:.0},",
        t.sim_cycles as f64 / opt_wall.max(1e-12)
    );
    let _ = writeln!(s, "  \"sim_uops\": {},", t.sim_uops);
    let _ = writeln!(s, "  \"sim_ns_per_uop\": {:.3},", t.ns_per_uop());
    let _ = writeln!(s, "  \"peak_cct_bytes\": {},", t.peak_cct);
    s.push_str("  \"phases_us\": {");
    for (i, (phase, ns)) in phases.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{phase}\": {:.1}", *ns as f64 / 1e3);
    }
    s.push_str("},\n");
    s.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"wall_s\": {:.6}, ",
            r.name, r.optimized.wall_s
        );
        if let Some(rs) = r.reference {
            let _ = write!(s, "\"reference_wall_s\": {:.6}, ", rs.wall_s);
        }
        let _ = write!(
            s,
            "\"sim_cycles\": {}, \"uops\": {}, \"cct_bytes\": {}, \"cct_records\": {}}}",
            r.optimized.sim_cycles,
            r.optimized.uops,
            r.optimized.cct_bytes,
            r.optimized.cct_records
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no external
/// date crates in this container; the civil-from-days conversion is the
/// standard Howard Hinnant algorithm).
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
