//! What the three workloads share: run parameters, the result they
//! accumulate, the profiling configurations, seeded program generation,
//! run fingerprints for the output checks, and host facts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pp_core::{Profiler, RunConfig, RunOutcome};
use pp_ir::HwEvent;
use pp_usim::{CounterNote, HwMetrics};
use pp_workloads::{Workload, WorkloadSpec, SUITE_NAMES};

use crate::stats::{median, Summary};
use crate::yardstick::{normalise, Yardstick};

/// Events on `%pic0` / `%pic1` in every hardware-metric configuration
/// (the paper's Table 4/5 pair).
pub const EVENTS: (HwEvent, HwEvent) = (HwEvent::Insts, HwEvent::DcMiss);

/// Table 1's configurations, by the names the metrics use.
pub const CONFIGS: [(&str, RunConfig); 6] = [
    ("base", RunConfig::Base),
    ("flow_freq", RunConfig::FlowFreq),
    ("flow_hw", RunConfig::FlowHw { events: EVENTS }),
    ("context_hw", RunConfig::ContextHw { events: EVENTS }),
    ("context_flow", RunConfig::ContextFlow),
    ("combined_hw", RunConfig::CombinedHw { events: EVENTS }),
];

/// The configuration `stats` and `fleet` profile under.
pub const COMBINED: RunConfig = RunConfig::CombinedHw { events: EVENTS };

/// How many times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// How many times each shard set is folded; its time is the median.
pub const MERGE_REPS: usize = 5;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Workload seed, XORed into every program's generator seed and
    /// driving the fleet's job mix.
    pub seed: u64,
    /// Seconds the timed part of the run lasts.
    pub seconds: f64,
    /// Keep spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Dynamic size of the suite programs (1.0 in the benchmark; the
    /// smoke tests use less).
    pub scale: f64,
    /// Directory for scratch state, spans and results.
    pub work_dir: PathBuf,
}

impl Params {
    /// The default scratch directory: `perfbench` under the Cargo target
    /// directory, which is inside the checkout.
    pub fn default_work_dir() -> PathBuf {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build"))
            .join("perfbench")
    }

    /// A fresh scratch directory for `what`, unique to this call.
    pub fn state_dir(&self, what: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.work_dir
            .join(format!("state-{}-{n}-{what}", std::process::id()))
    }
}

/// One metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: profile calls, jobs, shard folds, checks.
    pub attempted: u64,
    /// Operations that failed: faulted runs, integrity violations,
    /// refused or failed jobs, quarantined shards, check mismatches.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// Adds `other`'s operations, failures and notes to this outcome,
    /// and those of its metrics named in `keep`.
    pub fn absorb(&mut self, other: Outcome, keep: &[(&str, &str)]) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.notes.extend(other.notes);
        self.metrics.extend(
            other
                .metrics
                .into_iter()
                .filter(|m| keep.iter().any(|(name, _)| m.name == *name)),
        );
    }

    /// Records a timing distribution as `<name>_p50` and `<name>_p90`
    /// and notes its quartiles and sample count.
    pub fn timing(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let Some(s) = Summary::of(values) else {
            self.fail(format!("{name}: no samples"));
            return;
        };
        self.metric(format!("{name}_p50"), s.p50, unit);
        self.metric(format!("{name}_p90"), s.p90, unit);
        self.notes.push(format!(
            "{name}: n={} q1={:.4} median={:.4} q3={:.4} p90={:.4} {unit}{}",
            s.n,
            s.q1,
            s.p50,
            s.q3,
            s.p90,
            if s.p90_supported() {
                ""
            } else {
                " (fewer than 10 samples beyond p90)"
            }
        ));
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Generates the 18 suite programs at `scale` with `seed` XORed into
/// each generator seed; `edit` may adjust each spec first.
pub fn suite(seed: u64, scale: f64, edit: impl Fn(&mut WorkloadSpec)) -> Vec<Workload> {
    SUITE_NAMES
        .iter()
        .map(|name| {
            let mut spec = pp_workloads::spec_for(name)
                .expect("suite name has a spec")
                .scaled(scale);
            spec.seed ^= seed;
            edit(&mut spec);
            Workload {
                name: spec.name.clone(),
                cint: spec.cint,
                program: pp_workloads::build(&spec),
            }
        })
        .collect()
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with
/// the median host-normalised duration in seconds; earlier results go
/// to `discard`, untimed.
pub fn timed_setup<T>(
    yard: &Yardstick,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(v) = last.take() {
            discard(v);
        }
        let speed = yard.measure();
        let t = Instant::now();
        let v = setup();
        secs.push(normalise(t.elapsed().as_secs_f64(), speed));
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// Everything a run produces that the output checks compare: machine
/// metrics and the serialized profiles.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// Ground-truth event totals.
    pub metrics: HwMetrics,
    /// Retired micro-ops.
    pub uops: u64,
    /// Final `%pic` registers.
    pub pics: (u32, u32),
    /// Code bytes after layout.
    pub code_bytes: u64,
    /// Counter-wrap reconciliation outcome.
    pub counter_note: Option<CounterNote>,
    /// Serialized flow profile.
    pub flow: Option<Vec<u8>>,
    /// Serialized CCT.
    pub cct: Option<Vec<u8>>,
}

impl Fingerprint {
    /// Fingerprints a finished run.
    pub fn of(run: &RunOutcome) -> Fingerprint {
        let flow = run.flow.as_ref().map(|f| {
            let mut buf = Vec::new();
            f.write_to(&mut buf).expect("writing to a Vec cannot fail");
            buf
        });
        Fingerprint {
            metrics: run.machine.metrics,
            uops: run.machine.uops,
            pics: run.machine.pics,
            code_bytes: run.machine.code_bytes,
            counter_note: run.machine.counter_note,
            flow,
            cct: run.cct.as_ref().map(cct_bytes),
        }
    }
}

/// The serialized form of a CCT.
pub fn cct_bytes(cct: &pp_cct::CctRuntime) -> Vec<u8> {
    let mut buf = Vec::new();
    pp_cct::write_cct(cct, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// Runs `program` under `config` on the reference interpreter and checks
/// that its fingerprint equals `expected`.
pub fn check_reference(
    out: &mut Outcome,
    profiler: &Profiler,
    program: &pp_ir::Program,
    config: RunConfig,
    expected: &Fingerprint,
    what: &str,
) {
    let reference = profiler.run_reference(program, config);
    let same = match &reference {
        Ok(r) if r.is_complete() => Fingerprint::of(r) == *expected,
        _ => false,
    };
    out.check(same, || {
        format!("{what}: optimized and reference interpreters disagree")
    });
}

/// Checks that a profiled run completed and passes
/// `integrity::verify_outcome`.
pub fn check_run(out: &mut Outcome, program: &pp_ir::Program, run: &RunOutcome, what: &str) {
    if let Some(fault) = &run.fault {
        out.fail(format!("{what}: run faulted: {fault}"));
        return;
    }
    let verdict = pp_core::integrity::verify_outcome(program, run);
    if let Some(e) = verdict.first() {
        out.fail(format!("{what}: integrity violation: {e}"));
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host fingerprint results are recorded with: CPU model and
/// `nproc`.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("cpu=\"{cpu}\" nproc={}", nproc())
}

/// Host nanoseconds per simulated micro-op.
pub fn ns_per(secs: f64, uops: u64) -> f64 {
    secs * 1e9 / uops.max(1) as f64
}

/// Totals over the shard folds of one run.
#[derive(Clone, Debug, Default)]
pub struct MergeTotals {
    /// Raw seconds inside `run_merge`, each fold at its median over
    /// [`MERGE_REPS`].
    pub raw_secs: f64,
    /// Each fold's throughput in MB per host-normalised second (median
    /// over [`MERGE_REPS`]).
    pub fold_mb_per_s: Vec<f64>,
    /// Shard bytes folded.
    pub bytes: u64,
    /// Shards folded.
    pub shards: u64,
}

impl MergeTotals {
    /// Records the per-layer merge metrics. The throughput is the
    /// median fold's: a few folds hit by a stall move it less than they
    /// move a total.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("merge.ms", self.raw_secs * 1e3, "ms");
        out.metric("merge.shards", self.shards as f64, "count");
        out.metric("merge.bytes", self.bytes as f64, "bytes");
        let mb_per_s = if self.fold_mb_per_s.is_empty() {
            0.0
        } else {
            median(&self.fold_mb_per_s)
        };
        out.metric("merge.mb_per_s", mb_per_s, "MB/s");
    }
}

/// Folds `shards` (files of one program) with `merge::run_merge`
/// [`MERGE_REPS`] times back to back and returns the fleet profile
/// bytes, counting the median fold time, normalised by the yardstick
/// run before and after the folds (a run between folds would evict what
/// a fold of a few milliseconds works on). A quarantined shard, a failed
/// fold or folds that disagree count as failures.
pub fn fold_shards(
    out: &mut Outcome,
    tr: &mut crate::trace::Tracer,
    yard: &Yardstick,
    id: u64,
    shards: &[PathBuf],
    totals: &mut MergeTotals,
    what: &str,
) -> Option<Vec<u8>> {
    let inputs: Vec<String> = shards.iter().map(|p| p.display().to_string()).collect();
    let bytes: u64 = shards
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    let mut secs = Vec::with_capacity(MERGE_REPS);
    let mut raw_secs = Vec::with_capacity(MERGE_REPS);
    let mut results = Vec::with_capacity(MERGE_REPS);
    let before = yard.measure();
    for _ in 0..MERGE_REPS {
        let (result, took) = tr.time("merge.run_merge", id, |_| {
            pp_core::merge::run_merge(
                &inputs,
                &pp_core::MergeOptions::default(),
                &mut pp_obs::NoopRecorder,
            )
        });
        raw_secs.push(took.as_secs_f64());
        results.push(result);
    }
    let speed = (before + yard.measure()) / 2.0;
    secs.extend(raw_secs.iter().map(|&s| normalise(s, speed)));
    out.attempted += shards.len() as u64;
    let result = results.pop().expect("at least one fold");
    if let Ok(pp_core::MergeOutcome::Complete { bytes: last, .. }) = &result {
        let same = results.iter().all(
            |r| matches!(r, Ok(pp_core::MergeOutcome::Complete { bytes: b, .. }) if b == last),
        );
        out.check(same, || format!("{what}: repeated folds differ"));
    }
    match result {
        Ok(pp_core::MergeOutcome::Complete {
            bytes: merged,
            report,
        }) => {
            totals
                .fold_mb_per_s
                .push(bytes as f64 / 1e6 / median(&secs).max(1e-9));
            totals.raw_secs += median(&raw_secs);
            totals.bytes += bytes;
            totals.shards += report.merged_count() as u64;
            for q in report.quarantined() {
                out.fail(format!(
                    "{what}: shard {} quarantined: {:?}",
                    q.path, q.status
                ));
            }
            Some(merged)
        }
        Ok(pp_core::MergeOutcome::Halted { .. }) => {
            out.fail(format!("{what}: merge halted"));
            None
        }
        Err(e) => {
            out.fail(format!("{what}: merge failed: {e}"));
            None
        }
    }
}

/// Writes `bytes` to `path`, counting a write error as a failure.
pub fn write_shard(out: &mut Outcome, path: &std::path::Path, bytes: &[u8]) -> bool {
    let ok = std::fs::write(path, bytes);
    out.check(ok.is_ok(), || format!("writing {}: {ok:?}", path.display()));
    ok.is_ok()
}

/// Pins this process, and every thread it starts later, to the CPU it is
/// running on, with `taskset`. The host's CPUs slow down independently
/// of each other, so the yardstick describes only work done on the CPU
/// it ran on. Returns the CPU, or `None` when pinning failed (the run
/// goes on unpinned).
pub fn pin_to_current_cpu() -> Option<usize> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 39 (`processor`), counting from 1; the fields after the
    // parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let cpu: usize = rest.split_whitespace().nth(39 - 3)?.parse().ok()?;
    let status = std::process::Command::new("taskset")
        .args(["--all-tasks", "--pid", "--cpu-list"])
        .arg(cpu.to_string())
        .arg(std::process::id().to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?;
    status.success().then_some(cpu)
}
