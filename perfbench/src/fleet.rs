//! The `fleet` workload: a stream of short jobs through the job engines.
//!
//! The job programs are prebuilt in set-up: the 18 suite programs at
//! full static size with one outer and one inner iteration, plus seeded
//! small random programs. The seed picks the job mix. The same job list
//! goes through three phases:
//!
//! 1. **serve**: sent open-loop, one job every [`INTERVAL`], into an
//!    in-process `Service` with one worker per hardware thread; latency
//!    runs from each job's due time to its observed `done` event;
//! 2. **batch**: one `Supervisor::run` over the whole list;
//! 3. **merge**: each program's shards from each phase folded with
//!    `merge::run_merge` (shards of different programs would be
//!    quarantined as schema skew, so the fold is per program).
//!
//! Traced closed-loop runs also make a short fleet run, for the per-layer
//! metrics of the job engines.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pp_core::{JobSpec, JobStatus, Profiler, Service, ServiceConfig, SpecResolver, Supervisor};
use pp_instrument::{instrument_program, InstrumentOptions};
use pp_ir::Program;
use pp_obs::events::now_us;
use pp_obs::{EventFilter, Payload};
use pp_usim::{Machine, MachineConfig};
use pp_workloads::{random_program, RandomSpec, SmallRng};

use crate::common::{
    cct_bytes, check_reference, check_run, fold_shards, nproc, ns_per, peak_rss_mb, suite,
    timed_setup, Fingerprint, MergeTotals, Outcome, Params, COMBINED, EVENTS,
};
use crate::stats::{drive_open_loop, median, percentile, Summary};
use crate::trace::Tracer;
use crate::yardstick::{normalise, smoothed, Yardstick};

/// Time between job arrivals: 50 jobs/s, well below what the service
/// completes at saturation, so queues stay short, latency measures the
/// per-job path rather than backlog, and the generator has time to run
/// the yardstick before each job.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// How long before a job's due time the generator runs the yardstick
/// (one run takes a few milliseconds).
const MEASURE_LEAD: Duration = Duration::from_millis(8);

/// Jobs per `Supervisor::run` in the batch phase; the yardstick runs
/// before each.
const BATCH_CHUNK: usize = 100;

/// Share of the run's seconds spent sending jobs to the service; the
/// batch and merge phases take most of the rest.
const SERVE_SHARE: f64 = 0.6;

/// Seeded random programs added to the 18 suite programs. They use the
/// generator's default shape, whose runs last tens to hundreds of
/// microseconds: larger shapes nest calls in loops and can run for
/// seconds. There are few enough that the median job is a suite
/// program rather than one on the edge between the two groups.
const RANDOM_PROGRAMS: u64 = 6;

/// Times the batch phase runs the job list; its throughput is the median.
const BATCH_REPS: usize = 5;

/// Repetitions of each layer call when the traced run prices a job.
const LAYER_REPS: usize = 5;

/// The job programs, in job-mix order.
pub fn programs(seed: u64) -> Vec<(String, Program)> {
    let mut programs: Vec<(String, Program)> = suite(seed, 1.0, |spec| {
        spec.outer_iters = 1;
        spec.inner_iters = 1;
    })
    .into_iter()
    .map(|w| (w.name, w.program))
    .collect();
    for k in 0..RANDOM_PROGRAMS {
        programs.push((
            format!("random.{k}"),
            random_program(seed ^ (k + 1), &RandomSpec::default()),
        ));
    }
    programs
}

/// Which program each of `n` jobs runs: every program equally often (to
/// within one job), in an order the seed shuffles. With a balanced mix
/// the latency percentiles do not move with how often a seed happens to
/// pick the short or the long programs.
pub fn job_mix(seed: u64, n: usize, programs: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mix: Vec<usize> = (0..n).map(|i| i % programs).collect();
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.gen_range(0..=i));
    }
    mix
}

/// What the serve phase saw of one job.
#[derive(Clone, Copy, Default)]
struct JobObs {
    queued_us: u64,
    started_us: u64,
    done_us: u64,
    done_at: Option<Instant>,
    ok: bool,
    uops: u64,
}

/// Maps the bus's wall-clock microseconds onto `Instant`s.
#[derive(Clone, Copy)]
struct Clock {
    at: Instant,
    us: u64,
}

impl Clock {
    fn now() -> Clock {
        Clock {
            at: Instant::now(),
            us: now_us(),
        }
    }

    fn instant(&self, us: u64) -> Instant {
        if us >= self.us {
            self.at + Duration::from_micros(us - self.us)
        } else {
            self.at - Duration::from_micros(self.us - us)
        }
    }
}

fn start_service(dir: &Path, programs: &Arc<Vec<(String, Program)>>) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    let table = Arc::clone(programs);
    let resolver: SpecResolver = Arc::new(move |spec: &str| {
        let k: usize = spec
            .parse()
            .map_err(|_| format!("bad program index {spec:?}"))?;
        let (_, program) = table.get(k).ok_or_else(|| format!("no program {k}"))?;
        Ok((program.clone(), COMBINED))
    });
    let config = ServiceConfig {
        workers: nproc(),
        // Generous, so a host hiccup queues jobs instead of refusing
        // them; refusals still count as failures.
        queue_capacity: 4096,
        ..ServiceConfig::default()
    };
    Service::start(config, Profiler::default(), resolver, dir).map_err(|e| e.to_string())
}

/// Runs the fleet workload with `p`, recording metrics and checks into
/// `out`.
pub fn run(p: &Params, out: &mut Outcome, tr: &mut Tracer, yard: &Yardstick) {
    let serve_dir = p.state_dir("serve");
    let batch_dir = p.state_dir("batch");
    let mut gen_ms = Vec::new();
    let ((programs, service), setup_s) = timed_setup(
        yard,
        || {
            let t = Instant::now();
            let programs = Arc::new(programs(p.seed));
            gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let service = start_service(&serve_dir, &programs);
            (programs, service)
        },
        |(_, service)| {
            if let Ok(s) = service {
                let _ = s.shutdown();
            }
        },
    );
    let service = match service {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("service start: {e}"));
            return;
        }
    };
    let n_jobs = ((p.seconds * SERVE_SHARE / INTERVAL.as_secs_f64()) as usize).max(1);
    let mix = job_mix(p.seed, n_jobs, programs.len());

    // Phase 1: serve, open loop.
    let obs: Mutex<Vec<JobObs>> = Mutex::new(vec![JobObs::default(); n_jobs]);
    let admitted = AtomicUsize::new(0);
    let sent_all = AtomicBool::new(false);
    let clock = Clock::now();
    let sub = service.subscribe(EventFilter::default(), 1 << 16);
    let mut ids: Vec<Option<u64>> = vec![None; n_jobs];
    let mut submit_us = Vec::with_capacity(n_jobs);
    let mut refused = 0u64;
    // The yardstick speed measured just before each job was sent.
    let mut speeds = vec![0.0; n_jobs];
    let speed = Cell::new(yard.measure());
    let origin = Instant::now();
    let sends = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut done = 0usize;
            let give_up = Duration::from_secs(60);
            let mut last = Instant::now();
            loop {
                if sent_all.load(Ordering::SeqCst) && done >= admitted.load(Ordering::SeqCst) {
                    return;
                }
                if last.elapsed() > give_up {
                    return;
                }
                let Some(frame) = sub.recv(Duration::from_millis(50)) else {
                    continue;
                };
                last = Instant::now();
                let ev = frame.event;
                let Some(i) = ev
                    .name
                    .strip_prefix('j')
                    .and_then(|s| s.parse::<usize>().ok())
                else {
                    continue;
                };
                let mut obs = obs.lock().expect("collector state");
                let Some(o) = obs.get_mut(i) else { continue };
                match ev.payload {
                    Payload::Queued { .. } => o.queued_us = ev.ts_us,
                    Payload::Started { .. } => o.started_us = ev.ts_us,
                    Payload::Done { outcome, .. } => {
                        o.done_us = ev.ts_us;
                        o.done_at = Some(last);
                        o.ok = outcome == "done";
                        done += 1;
                    }
                    _ => {}
                }
            }
        });
        let sends = drive_open_loop(
            n_jobs,
            INTERVAL,
            || origin.elapsed(),
            |t| {
                if let Some(before) = t.checked_sub(MEASURE_LEAD) {
                    std::thread::sleep(before.saturating_sub(origin.elapsed()));
                    speed.set(yard.measure());
                }
                std::thread::sleep(t.saturating_sub(origin.elapsed()));
            },
            |i| {
                speeds[i] = speed.get();
                // Every other job keeps its spans, so the traced run can
                // price tracing against the untraced half.
                let was = tr.enabled();
                tr.set_enabled(was && i % 2 == 0);
                let (r, took) = tr.time("service.submit", i as u64, |_| {
                    service.submit("perfbench", &format!("j{i}"), &mix[i].to_string())
                });
                tr.set_enabled(was);
                submit_us.push(took.as_secs_f64() * 1e6);
                match r {
                    Ok(id) => {
                        ids[i] = Some(id);
                        admitted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => refused += 1,
                }
            },
        );
        sent_all.store(true, Ordering::SeqCst);
        collector.join().expect("event collector panicked");
        sends
    });
    drop(sub);
    for view in service.jobs() {
        if let Some(i) = view
            .name
            .strip_prefix('j')
            .and_then(|s| s.parse::<usize>().ok())
        {
            if let Some(o) = obs.lock().expect("collector state").get_mut(i) {
                o.uops = view.uops;
            }
        }
    }
    match service.shutdown() {
        Ok(report) => out.check(
            report
                .manifest
                .jobs
                .iter()
                .all(|j| j.status == JobStatus::Done),
            || "serve: a job did not finish done".to_string(),
        ),
        Err(e) => out.check(false, || format!("serve: shutdown failed: {e}")),
    }
    let obs = obs.into_inner().expect("collector state");
    let speeds = smoothed(&speeds);

    // Raw host milliseconds, and host-normalised ones for the end-to-end
    // metrics.
    let mut job_ms = Vec::new();
    let mut job_norm = Vec::new();
    let mut exec_ms = Vec::new();
    let mut exec_norm = Vec::new();
    let mut queue_ms = Vec::new();
    let mut exec_by_program: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut uops = 0u64;
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    for (i, (o, &(due, _))) in obs.iter().zip(&sends).enumerate() {
        out.attempted += 1;
        let Some(done_at) = o.done_at.filter(|_| o.ok && ids[i].is_some()) else {
            out.fail(format!("serve: job j{i} not done"));
            continue;
        };
        let latency = done_at
            .saturating_duration_since(origin + due)
            .as_secs_f64()
            * 1e3;
        let latency_norm = normalise(latency, speeds[i]);
        job_ms.push(latency);
        job_norm.push(latency_norm);
        if i % 2 == 0 {
            traced_ms.push(latency_norm);
        } else {
            untraced_ms.push(latency_norm);
        }
        let exec = o.done_us.saturating_sub(o.started_us) as f64 / 1e3;
        exec_ms.push(exec);
        exec_norm.push(normalise(exec, speeds[i]));
        exec_by_program
            .entry(mix[i])
            .or_default()
            .push(normalise(exec, speeds[i]));
        uops += o.uops;
        queue_ms.push(o.started_us.saturating_sub(o.queued_us) as f64 / 1e3);
        let job = tr.record("job", i as u64, None, origin + due, done_at);
        let q = clock.instant(o.queued_us);
        let s = clock.instant(o.started_us);
        tr.record("service.queue", i as u64, job, q, s);
        tr.record("service.exec", i as u64, job, s, clock.instant(o.done_us));
    }

    // Phase 2: the same job list as one batch.
    let jobs: Vec<JobSpec> = mix
        .iter()
        .enumerate()
        .map(|(i, &k)| JobSpec::new(format!("j{i}"), programs[k].1.clone(), COMBINED))
        .collect();
    // Timed: the list as consecutive in-memory batches of BATCH_CHUNK
    // jobs with the yardstick run before each, so a slow spell of the
    // host is normalised where it happened. Checkpointing is left out of
    // the timing: each job's artifacts cost two fsyncs, and on the build
    // host fsync latency varied more than anything measured here.
    let mut batch_norm = Vec::with_capacity(BATCH_REPS);
    let mut batch_raw = Vec::with_capacity(BATCH_REPS);
    for rep in 0..BATCH_REPS {
        let (mut raw, mut chunk_speeds) = (Vec::new(), Vec::new());
        for chunk in jobs.chunks(BATCH_CHUNK) {
            let supervisor = Supervisor::new(Profiler::default()).with_workers(nproc());
            chunk_speeds.push(yard.measure());
            let (batch, took) = tr.time("supervisor.run", rep as u64, |_| {
                supervisor.run(chunk, false)
            });
            raw.push(took.as_secs_f64());
            match &batch {
                Ok(report) => {
                    for j in &report.manifest.jobs {
                        out.check(j.status == JobStatus::Done, || {
                            format!("batch: job {} {:?}", j.name, j.status)
                        });
                    }
                }
                Err(e) => out.check(false, || format!("batch: {e}")),
            }
        }
        let norm = raw
            .iter()
            .zip(smoothed(&chunk_speeds))
            .map(|(&r, s)| normalise(r, s))
            .sum();
        batch_norm.push(norm);
        batch_raw.push(raw.iter().sum());
    }
    let batch_s = median(&batch_raw);
    // Untimed: one checkpointed batch of the whole list, whose artifacts
    // the merge phase folds.
    let _ = std::fs::remove_dir_all(&batch_dir);
    let supervisor = Supervisor::new(Profiler::default())
        .with_workers(nproc())
        .with_checkpoint_dir(&batch_dir);
    match supervisor.run(&jobs, false) {
        Ok(report) => {
            for j in &report.manifest.jobs {
                out.check(j.status == JobStatus::Done, || {
                    format!("checkpointed batch: job {} {:?}", j.name, j.status)
                });
            }
        }
        Err(e) => out.check(false, || format!("checkpointed batch: {e}")),
    }

    // Phase 3: fold each program's shards from each phase; both folds
    // must produce the same bytes.
    let mut by_program: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &k) in mix.iter().enumerate() {
        by_program.entry(k).or_default().push(i);
    }
    let mut merges = MergeTotals::default();
    for (&k, job_idx) in &by_program {
        let served: Vec<PathBuf> = job_idx
            .iter()
            .filter_map(|&i| ids[i])
            .map(|id| serve_dir.join(format!("job-{id:06}.cct")))
            .collect();
        let batched: Vec<PathBuf> = job_idx
            .iter()
            .map(|&i| batch_dir.join(format!("job-{i:03}.cct")))
            .collect();
        let name = &programs[k].0;
        let id = k as u64;
        let a = fold_shards(
            out,
            tr,
            yard,
            id,
            &served,
            &mut merges,
            &format!("serve {name}"),
        );
        let b = fold_shards(
            out,
            tr,
            yard,
            id,
            &batched,
            &mut merges,
            &format!("batch {name}"),
        );
        out.check(a.is_some() && a == b, || {
            format!("{name}: serve and batch folds differ")
        });
    }

    // The traced run prices one job's layers, program by program.
    let layers = p.trace.then(|| job_layers(out, tr, &programs));
    let rss = peak_rss_mb();

    // Output checks: each program's job artifact and a bare run equal the
    // reference interpreter's; the base runs give the simulated overhead.
    let profiler = Profiler::default();
    let (mut base_cycles, mut combined_cycles) = (0u64, 0u64);
    for (&k, job_idx) in &by_program {
        let (name, program) = &programs[k];
        let run = profiler.run(program, COMBINED);
        out.attempted += 1;
        let Ok(run) = run else {
            out.fail(format!("{name}: bare run failed"));
            continue;
        };
        check_run(out, program, &run, name);
        let fp = Fingerprint::of(&run);
        check_reference(out, &profiler, program, COMBINED, &fp, name);
        if let Some(id) = job_idx.iter().find_map(|&i| ids[i]) {
            let artifact = std::fs::read(serve_dir.join(format!("job-{id:06}.cct"))).ok();
            out.check(artifact.is_some() && artifact == fp.cct, || {
                format!("{name}: served artifact differs from a bare run")
            });
        }
        combined_cycles += run.cycles();
        let base = profiler.run(program, pp_core::RunConfig::Base);
        out.check(base.as_ref().is_ok_and(|b| b.is_complete()), || {
            format!("{name}: base run failed")
        });
        base_cycles += base.map_or(0, |b| b.cycles());
    }
    let _ = std::fs::remove_dir_all(&serve_dir);
    let _ = std::fs::remove_dir_all(&batch_dir);

    out.check(refused == 0, || format!("serve: {refused} submits refused"));
    let p50 = |v: &[f64]| Summary::of(v).map_or(0.0, |s| s.p50);
    if let Some(l) = layers {
        let bare_p50 = median(&mix.iter().map(|&k| l.run_ms[k]).collect::<Vec<_>>());
        let bare_total_s: f64 = mix.iter().map(|&k| l.run_ms[k] / 1e3).sum();
        let job_median = |v: &[f64]| median(&mix.iter().map(|&k| v[k]).collect::<Vec<_>>());
        out.metric("workloads.build_ms", median(&gen_ms), "ms");
        out.metric("service.submit_us_p50", p50(&submit_us), "us");
        out.metric("service.submit_us_p90", percentile(&submit_us, 90.0), "us");
        out.metric("service.queue_ms_p50", p50(&queue_ms), "ms");
        out.metric("service.exec_ms_p50", p50(&exec_ms), "ms");
        out.metric("job.instrument_ms", job_median(&l.instrument_ms), "ms");
        out.metric("job.decode_ms", job_median(&l.decode_ms), "ms");
        out.metric("job.simulate_ms", job_median(&l.simulate_ms), "ms");
        out.metric("integrity.verify_ms", job_median(&l.verify_ms), "ms");
        out.metric("cct.write_ms", job_median(&l.write_ms), "ms");
        out.metric("cct.read_ms", job_median(&l.read_ms), "ms");
        out.metric("service.overhead_x", p50(&job_ms) / bare_p50.max(1e-9), "x");
        out.metric(
            "supervisor.overhead_x",
            batch_s / (bare_total_s / nproc() as f64).max(1e-9),
            "x",
        );
        let late_ms: Vec<f64> = sends
            .iter()
            .map(|&(d, s)| (s - d).as_secs_f64() * 1e3)
            .collect();
        out.metric("gen.late_ms_p90", percentile(&late_ms, 90.0), "ms");
        out.metric("service.refused", refused as f64, "count");
        out.metric(
            "trace.overhead_pct",
            (p50(&traced_ms) / p50(&untraced_ms).max(1e-9) - 1.0) * 100.0,
            "%",
        );
        merges.report(out);
        out.metric("yardstick.ns_per_uop", median(&speeds), "ns");
        return;
    }
    out.metric("setup_s", setup_s, "s");
    // Each job at its program's median execution time: slow spells of
    // the host move a median less than a sum.
    let exec_s: f64 = mix
        .iter()
        .filter_map(|k| exec_by_program.get(k))
        .map(|v| median(v) / 1e3)
        .sum();
    out.metric("ns_per_uop", ns_per(exec_s, uops), "ns");
    out.timing("profile_ms", &exec_norm, "ms");
    out.timing("job_ms", &job_norm, "ms");
    out.metric(
        "sim_overhead_x",
        combined_cycles as f64 / base_cycles.max(1) as f64,
        "x",
    );
    out.metric(
        "batch_jobs_per_s",
        jobs.len() as f64 / median(&batch_norm).max(1e-9),
        "1/s",
    );
    out.metric("peak_rss_mb", rss, "MiB");
    let late_ms: Vec<f64> = sends
        .iter()
        .map(|&(d, s)| (s - d).as_secs_f64() * 1e3)
        .collect();
    out.notes.push(format!(
        "open loop: {n_jobs} jobs at {:.0}/s, generator late p90 {:.3} ms; raw job_ms p50 {:.4} p90 {:.4}, raw batch {:.1} jobs/s, yardstick median {:.4} ns per uop",
        1.0 / INTERVAL.as_secs_f64(),
        percentile(&late_ms, 90.0),
        p50(&job_ms),
        percentile(&job_ms, 90.0),
        jobs.len() as f64 / batch_s.max(1e-9),
        median(&speeds),
    ));
}

/// Median milliseconds of each layer call of one job, per program.
struct JobLayers {
    instrument_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    simulate_ms: Vec<f64>,
    run_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
}

/// Times the layer calls one job makes, [`LAYER_REPS`] times per
/// program: instrument, decode, the whole profiled run (simulate is the
/// run minus instrument and decode), the integrity check, and the CCT
/// write and read-back.
fn job_layers(out: &mut Outcome, tr: &mut Tracer, programs: &[(String, Program)]) -> JobLayers {
    let profiler = Profiler::default();
    let mode = COMBINED.mode().expect("combined is instrumented");
    let opts = InstrumentOptions::new(mode).with_events(EVENTS.0, EVENTS.1);
    let mut l = JobLayers {
        instrument_ms: Vec::new(),
        decode_ms: Vec::new(),
        simulate_ms: Vec::new(),
        run_ms: Vec::new(),
        verify_ms: Vec::new(),
        write_ms: Vec::new(),
        read_ms: Vec::new(),
    };
    for (k, (name, program)) in programs.iter().enumerate() {
        let mut s: [Vec<f64>; 6] = Default::default();
        for _ in 0..LAYER_REPS {
            let id = k as u64;
            let (inst, t_inst) = tr.time("instrument", id, |_| instrument_program(program, opts));
            let Ok(inst) = inst else {
                out.check(false, || format!("{name}: instrument failed"));
                break;
            };
            let (_, t_dec) = tr.time("usim.decode", id, |_| {
                std::hint::black_box(Machine::new(&inst.program, MachineConfig::default()));
            });
            let (run, t_run) = tr.time("pp.run", id, |_| profiler.run(program, COMBINED));
            let Ok(run) = run else {
                out.check(false, || format!("{name}: run failed"));
                break;
            };
            out.attempted += 1;
            let (_, t_ver) = tr.time("integrity.verify_outcome", id, |_| {
                check_run(out, program, &run, name)
            });
            let (bytes, t_w) = tr.time("cct.write", id, |_| run.cct.as_ref().map(cct_bytes));
            let bytes = bytes.unwrap_or_default();
            let (back, t_r) = tr.time("cct.read", id, |_| pp_cct::read_cct(&mut bytes.as_slice()));
            out.check(back.is_ok(), || format!("{name}: CCT read-back failed"));
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            for (v, x) in s.iter_mut().zip([
                ms(t_inst),
                ms(t_dec),
                ms(t_run),
                ms(t_ver),
                ms(t_w),
                ms(t_r),
            ]) {
                v.push(x);
            }
        }
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let [inst, dec, run, ver, w, r] = s.map(|v| med(&v));
        l.instrument_ms.push(inst);
        l.decode_ms.push(dec);
        l.simulate_ms.push(run - inst - dec);
        l.run_ms.push(run);
        l.verify_ms.push(ver);
        l.write_ms.push(w);
        l.read_ms.push(r);
    }
    l
}
