//! Supervised batch profiling.
//!
//! The paper's experiments profile whole SPEC95 suites in long
//! unattended runs (§6); the production analog is a campaign of
//! profiling jobs that must survive runaway guests, crashing workers,
//! transient faults, and the supervising process itself being killed.
//! This module provides that harness:
//!
//! * a queue of [`JobSpec`]s executed on N worker threads, each attempt
//!   isolated with `catch_unwind` so a panicking job poisons nothing and
//!   becomes a typed [`JobFailure`];
//! * transient-vs-permanent [`FailureClass`]ification over the
//!   [`ExecError`] taxonomy, with capped exponential backoff and
//!   deterministic seeded jitter for transient retries;
//! * guest resource limits ([`GuestLimits`](pp_usim::GuestLimits)) imposed through the
//!   [`Profiler`], so an infinite-loop guest burns its fuel budget and
//!   comes back as a partial-profile failure instead of wedging a
//!   worker;
//! * crash-safe checkpointing: after completions the supervisor
//!   atomically rewrites a [`BatchManifest`] (plus the finished jobs'
//!   serialized profiles) in the checkpoint directory, and
//!   [`Supervisor::run`] with `resume` re-runs only jobs whose entries
//!   (and profile bytes) don't validate;
//! * cooperative shutdown: cancelling the supervisor's [`CancelToken`]
//!   stops job scheduling, drains in-flight jobs, and still writes a
//!   final manifest.
//!
//! The per-job attempt/retry state machine lives in [`JobExecutor`] so
//! other schedulers — notably the long-running
//! [`Service`](crate::service::Service) — can drive the same isolation,
//! classification, backoff, and quarantine behavior from their own
//! queues. The per-job state machine is `queued → running → (retrying →
//! running)* → done | failed`; only `queued` (as pending), `done`, and
//! `failed` are ever persisted. Everything persisted is a function of
//! the campaign inputs — same seed and jobs ⇒ byte-identical final
//! manifest, regardless of worker count, interleaving, or an
//! interruption-and-resume in between.

pub mod manifest;

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Mutex, Once};
use std::time::Duration;

use pp_ir::Program;
use pp_obs::Recorder;
use pp_usim::{CancelToken, ExecError, FaultPlan, LimitKind};

use crate::error::PpError;
use crate::profiler::{ProfileError, Profiler, RunConfig, RunOutcome};
use crate::splitmix64;
use manifest::{BatchManifest, JobEntry, JobStatus, ProfileRef};

/// Name prefix of supervisor worker threads (the panic hook suppresses
/// the default backtrace spew for injected/caught worker panics). The
/// service layer names its workers with the same prefix so they share
/// the suppression.
pub(crate) const WORKER_THREAD_PREFIX: &str = "pp-batch-worker";

/// Where an injected transient fault aborts the guest, in µops.
const TRANSIENT_ABORT_UOPS: u64 = 5_000;

/// Which counter read an injected profile-corruption fault clobbers
/// (`corrupt_on_job`). Planting near-wrap values mid-run makes the wide
/// shadow counters jump by ~2³², which post-run integrity verification
/// flags as an unreconcilable wrap. Only fires under a hardware-metric
/// [`RunConfig`] — frequency-only runs never read the counters.
const CORRUPT_CLOBBER_READ: u64 = 3;

/// The near-wrap counter values the corruption injection plants.
const CORRUPT_CLOBBER_VALUES: (u32, u32) = (u32::MAX - 10, u32::MAX - 5);

/// One profiling job in a campaign.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Unique name within the campaign (keys the manifest entry).
    pub name: String,
    /// The guest program to profile.
    pub program: Program,
    /// The profiling configuration to run it under.
    pub config: RunConfig,
}

impl JobSpec {
    /// Builds a job.
    pub fn new(name: impl Into<String>, program: Program, config: RunConfig) -> JobSpec {
        JobSpec {
            name: name.into(),
            program,
            config,
        }
    }
}

/// Whether a failed attempt is worth retrying.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureClass {
    /// Environmental or injected — a retry may succeed (worker panic,
    /// injected abort, missed wall-clock deadline).
    Transient,
    /// Deterministic — retrying reproduces it (fuel/memory/depth limits,
    /// machine faults, instrumentation failures, cancellation).
    Permanent,
}

impl FailureClass {
    /// The wire tag of this class (`transient` / `permanent`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureClass::Transient => "transient",
            FailureClass::Permanent => "permanent",
        }
    }
}

/// What a failed attempt actually hit.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// The worker thread panicked; the payload message is preserved.
    Panic(String),
    /// The guest faulted or hit a limit.
    Exec(ExecError),
    /// Instrumentation (path analysis / rewriting) failed.
    Instrument(String),
    /// The run finished but its profile failed integrity verification;
    /// the offending artifacts were quarantined. The message is the
    /// first violated invariant.
    Integrity(String),
}

/// A typed job failure: what happened and whether it was retryable.
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Transient (retried) or permanent (final on first sight).
    pub class: FailureClass,
    /// The failure itself.
    pub kind: FailureKind,
}

impl JobFailure {
    fn from_exec(err: ExecError) -> JobFailure {
        JobFailure {
            class: classify_exec(&err),
            kind: FailureKind::Exec(err),
        }
    }

    fn from_panic(payload: Box<dyn std::any::Any + Send>) -> JobFailure {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        JobFailure {
            class: FailureClass::Transient,
            kind: FailureKind::Panic(msg),
        }
    }

    fn from_profile_error(err: ProfileError) -> JobFailure {
        match err {
            ProfileError::Exec(e) => JobFailure::from_exec(e),
            ProfileError::Instrument(e) => JobFailure {
                class: FailureClass::Permanent,
                kind: FailureKind::Instrument(e.to_string()),
            },
        }
    }

    /// Did the guest stop on a [`GuestLimits`](pp_usim::GuestLimits) bound?
    pub fn is_limit(&self) -> bool {
        matches!(self.kind, FailureKind::Exec(ExecError::LimitExceeded(_)))
    }

    /// Was this a caught worker panic?
    pub fn is_panic(&self) -> bool {
        matches!(self.kind, FailureKind::Panic(_))
    }

    /// Did post-run verification quarantine this job's profile?
    pub fn is_integrity(&self) -> bool {
        matches!(self.kind, FailureKind::Integrity(_))
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureKind::Exec(e) => write!(f, "{e}"),
            FailureKind::Instrument(e) => write!(f, "instrumentation failed: {e}"),
            FailureKind::Integrity(e) => write!(f, "integrity: {e}"),
        }
    }
}

/// Maps an [`ExecError`] onto a [`FailureClass`]. Injected aborts model
/// transient environmental faults; a missed wall-clock deadline may pass
/// on a less loaded host; everything else reproduces deterministically.
pub fn classify_exec(err: &ExecError) -> FailureClass {
    match err {
        ExecError::FaultAbort { .. } => FailureClass::Transient,
        ExecError::LimitExceeded(LimitKind::Deadline { .. }) => FailureClass::Transient,
        ExecError::LimitExceeded(_)
        | ExecError::StackOverflow { .. }
        | ExecError::InstructionLimit
        | ExecError::BadIndirectTarget { .. }
        | ExecError::BadJumpToken { .. } => FailureClass::Permanent,
    }
}

/// Supervisor-level fault injection, exercising the recovery paths the
/// machine-level [`FaultPlan`] cannot reach: worker panics, torn
/// checkpoint writes, and a simulated `kill -9` of the supervisor.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchFaultPlan {
    /// Panic the worker on job `.0` for its first `.1` attempts.
    pub panic_on_job: Option<(usize, u32)>,
    /// Inject a machine-level transient abort into job `.0` for its
    /// first `.1` attempts (retry-then-succeed when `.1 ≤ max_retries`).
    pub transient_on_job: Option<(usize, u32)>,
    /// After checkpoint write number `.0` (1-based), truncate the
    /// manifest to `.1` bytes — a torn write for resume to detect.
    pub truncate_checkpoint: Option<(u32, u64)>,
    /// Stop the campaign abruptly after checkpoint write number `.0`
    /// (1-based): no draining, no final manifest — the library-level
    /// stand-in for `kill -9`.
    pub halt_after_checkpoints: Option<u32>,
    /// Clobber the hardware counters mid-run on job `.0` for its first
    /// `.1` attempts, corrupting the profile in a way only post-run
    /// integrity verification catches (the run itself completes clean).
    pub corrupt_on_job: Option<(usize, u32)>,
}

impl BatchFaultPlan {
    /// Panic job `job`'s worker on its first `attempts` attempts.
    pub fn panic_on_job(mut self, job: usize, attempts: u32) -> BatchFaultPlan {
        self.panic_on_job = Some((job, attempts));
        self
    }

    /// Abort job `job` with a transient fault on its first `attempts`
    /// attempts.
    pub fn transient_on_job(mut self, job: usize, attempts: u32) -> BatchFaultPlan {
        self.transient_on_job = Some((job, attempts));
        self
    }

    /// Truncate the manifest to `keep` bytes right after checkpoint
    /// write `write` (1-based).
    pub fn truncate_checkpoint(mut self, write: u32, keep: u64) -> BatchFaultPlan {
        self.truncate_checkpoint = Some((write, keep));
        self
    }

    /// Halt the campaign abruptly after checkpoint write `write`
    /// (1-based).
    pub fn halt_after_checkpoints(mut self, write: u32) -> BatchFaultPlan {
        self.halt_after_checkpoints = Some(write);
        self
    }

    /// Corrupt job `job`'s profile (via a mid-run counter clobber) on
    /// its first `attempts` attempts.
    pub fn corrupt_on_job(mut self, job: usize, attempts: u32) -> BatchFaultPlan {
        self.corrupt_on_job = Some((job, attempts));
        self
    }

    /// The per-job fault slice of this plan for job `idx` — what a
    /// [`JobExecutor`] can inject on its own (the checkpoint-level
    /// injections stay with the coordinator).
    pub fn job_faults(&self, idx: usize) -> JobFaults {
        let pick = |o: Option<(usize, u32)>| o.map_or(0, |(j, n)| if j == idx { n } else { 0 });
        JobFaults {
            panic_attempts: pick(self.panic_on_job),
            transient_attempts: pick(self.transient_on_job),
            corrupt_attempts: pick(self.corrupt_on_job),
        }
    }
}

/// Fault injection scoped to one job execution: each kind fires on the
/// job's first N attempts (0 = never). This is the executor-level
/// remnant of [`BatchFaultPlan`] — pure per-attempt behavior, no
/// checkpoint hooks — and what the service layer uses for soak faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobFaults {
    /// Panic the worker thread on the first N attempts.
    pub panic_attempts: u32,
    /// Inject a machine-level transient abort on the first N attempts.
    pub transient_attempts: u32,
    /// Clobber the hardware counters (profile corruption detectable
    /// only by post-run verification) on the first N attempts.
    pub corrupt_attempts: u32,
}

/// One classified retry decision: after `attempt` failed with `class`,
/// the executor slept `delay_ms` before the next attempt. The schedule
/// is a pure function of `(seed, job index, attempt)` — asserting it
/// across runs is how backoff determinism is tested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryStep {
    /// The 1-based attempt that failed and was retried.
    pub attempt: u32,
    /// How the failure was classified (integrity retries record
    /// [`FailureClass::Transient`] — that is why they were retried).
    pub class: FailureClass,
    /// The backoff slept before the next attempt, in milliseconds.
    pub delay_ms: u64,
}

/// A live notification from inside [`JobExecutor::execute_observed`],
/// delivered on the worker thread *while the job is still running* —
/// the hook the service's event bus uses to stream `retrying` /
/// `quarantined` frames as they happen rather than after the terminal
/// state.
#[derive(Clone, Debug)]
pub enum ExecEvent {
    /// A failed attempt was classified and a retry scheduled; the
    /// executor sleeps `delay_ms` before re-running.
    Retrying {
        /// The 1-based attempt that failed.
        attempt: u32,
        /// The failure classification that justified the retry.
        class: FailureClass,
        /// The backoff about to be slept, in milliseconds.
        delay_ms: u64,
    },
    /// An attempt's profile failed post-run verification and its
    /// artifacts were quarantined.
    Quarantined {
        /// The 1-based attempt whose artifacts were quarantined.
        attempt: u32,
        /// The first violated invariant.
        reason: String,
    },
}

/// A [`RetryStep`] tagged with its job index — the campaign-level
/// schedule entry collected into [`BatchReport::retry_schedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRetry {
    /// Index of the job in the campaign's job list.
    pub job: usize,
    /// The 1-based attempt that failed and was retried.
    pub attempt: u32,
    /// The failure classification that justified the retry.
    pub class: FailureClass,
    /// The backoff slept before the next attempt, in milliseconds.
    pub delay_ms: u64,
}

/// How one job execution ended.
#[derive(Clone, Debug)]
pub enum ExecOutcome {
    /// The job finished and its profile verified; the serialized bytes
    /// are present when the caller asked for them.
    Done {
        /// Serialized flow profile (envelope included), if collected.
        flow: Option<Vec<u8>>,
        /// Serialized CCT profile (envelope included), if collected.
        cct: Option<Vec<u8>>,
    },
    /// The job exhausted its retry budget (or failed permanently).
    Failed(JobFailure),
}

/// One verification-failed attempt, carried back for quarantining: the
/// serialized artifacts (present when profiles were requested) and the
/// typed report text.
#[derive(Clone, Debug)]
pub struct QuarantinedAttempt {
    /// The 1-based attempt whose profile failed verification.
    pub attempt: u32,
    /// The rejected flow profile bytes, if collected.
    pub flow: Option<Vec<u8>>,
    /// The rejected CCT profile bytes, if collected.
    pub cct: Option<Vec<u8>>,
    /// Human-readable report of the violated invariants.
    pub report: String,
}

/// Everything one [`JobExecutor::execute`] call did: the outcome, the
/// attempt accounting, the quarantined artifacts, and the classified
/// retry schedule.
#[derive(Clone, Debug)]
pub struct JobExecution {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Retries taken (attempts − 1 when any were).
    pub retries: u32,
    /// Worker panics caught.
    pub panics: u32,
    /// Attempts stopped by a guest-limit bound.
    pub limit_stops: u32,
    /// Guest cycles of the final attempt (0 when none ran to a count).
    pub cycles: u64,
    /// Guest µops of the final attempt.
    pub uops: u64,
    /// How the job ended.
    pub outcome: ExecOutcome,
    /// Verification-failed attempts awaiting quarantine persistence.
    pub quarantines: Vec<QuarantinedAttempt>,
    /// The classified retry schedule, in attempt order.
    pub retry_schedule: Vec<RetryStep>,
}

/// The per-job attempt/retry state machine, decoupled from the batch
/// [`Supervisor`] so any scheduler — the one-shot batch queue or the
/// long-running service intake — can execute jobs with identical panic
/// isolation, failure classification, deterministic backoff, and
/// integrity quarantine semantics.
#[derive(Clone, Debug)]
pub struct JobExecutor {
    profiler: Profiler,
    max_retries: u32,
    backoff_base_ms: u64,
    backoff_cap_ms: u64,
    seed: u64,
}

impl Default for JobExecutor {
    fn default() -> JobExecutor {
        JobExecutor {
            profiler: Profiler::default(),
            max_retries: 2,
            backoff_base_ms: 4,
            backoff_cap_ms: 250,
            seed: 0,
        }
    }
}

impl JobExecutor {
    /// An executor running jobs through `profiler` (which carries the
    /// machine configuration and any [`GuestLimits`](pp_usim::GuestLimits)).
    pub fn new(profiler: Profiler) -> JobExecutor {
        JobExecutor {
            profiler,
            ..JobExecutor::default()
        }
    }

    /// Retry budget for transient failures (attempts = retries + 1).
    pub fn with_max_retries(mut self, retries: u32) -> JobExecutor {
        self.max_retries = retries;
        self
    }

    /// Backoff base and cap, in milliseconds. Delay before retry `n`
    /// (1-based) is `min(cap, base·2ⁿ⁻¹) + jitter`, jitter seeded from
    /// `(seed, job, attempt)` — deterministic across runs.
    pub fn with_backoff_ms(mut self, base: u64, cap: u64) -> JobExecutor {
        self.backoff_base_ms = base;
        self.backoff_cap_ms = cap.max(base);
        self
    }

    /// Seed for backoff jitter.
    pub fn with_seed(mut self, seed: u64) -> JobExecutor {
        self.seed = seed;
        self
    }

    /// The profiler this executor runs jobs through.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Capped exponential backoff with deterministic jitter: retrying
    /// `attempt` of job `idx` waits `min(cap, base·2^(attempt-1))` plus
    /// up to `base` extra milliseconds drawn from a splitmix64 stream
    /// seeded on `(seed, job, attempt)`.
    pub fn backoff(&self, idx: u64, attempt: u32) -> Duration {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(self.backoff_cap_ms);
        let jitter = if self.backoff_base_ms == 0 {
            0
        } else {
            splitmix64(self.seed ^ idx ^ (u64::from(attempt) << 32)) % self.backoff_base_ms
        };
        Duration::from_millis(exp + jitter)
    }

    /// Runs one job through the attempt/retry state machine. A clean
    /// attempt's profile is verified (in memory and, when
    /// `want_profiles`, as serialized bytes) before it counts as done; a
    /// verification failure quarantines the artifacts and earns exactly
    /// one re-run before the job is marked permanently failed.
    pub fn execute(
        &self,
        idx: u64,
        job: &JobSpec,
        faults: JobFaults,
        want_profiles: bool,
    ) -> JobExecution {
        self.execute_observed(idx, job, faults, want_profiles, &mut |_| {})
    }

    /// [`JobExecutor::execute`] with a live observer: `observer` is
    /// called *as* retries are scheduled and profiles quarantined (not
    /// after the fact from [`JobExecution`]), so the service layer can
    /// publish `retrying` / `quarantined` events while the job is still
    /// running. The observer runs on the worker thread; it must not
    /// block.
    pub fn execute_observed(
        &self,
        idx: u64,
        job: &JobSpec,
        faults: JobFaults,
        want_profiles: bool,
        observer: &mut dyn FnMut(ExecEvent),
    ) -> JobExecution {
        let _span = pp_obs::span!("batch.job");
        let mut attempt = 0u32;
        let mut retries = 0u32;
        let mut panics = 0u32;
        let mut limit_stops = 0u32;
        let mut integrity_retried = false;
        let mut quarantines: Vec<QuarantinedAttempt> = Vec::new();
        let mut retry_schedule: Vec<RetryStep> = Vec::new();
        loop {
            attempt += 1;
            let inject_panic = attempt <= faults.panic_attempts;
            let mut profiler = self.profiler.clone();
            if attempt <= faults.transient_attempts {
                profiler = profiler
                    .with_fault_plan(FaultPlan::default().abort_at_uops(TRANSIENT_ABORT_UOPS));
            }
            if attempt <= faults.corrupt_attempts {
                profiler = profiler.with_fault_plan(FaultPlan::default().clobber_pics_at_read(
                    CORRUPT_CLOBBER_READ,
                    CORRUPT_CLOBBER_VALUES.0,
                    CORRUPT_CLOBBER_VALUES.1,
                ));
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                assert!(
                    !inject_panic,
                    "injected worker panic (job {idx}, attempt {attempt})"
                );
                profiler.run(&job.program, job.config)
            }));
            let (failure, partial) = match result {
                Ok(Ok(outcome)) => match outcome.fault.clone() {
                    None => {
                        let (flow, cct) = if want_profiles {
                            serialize_profiles(&outcome)
                        } else {
                            (None, None)
                        };
                        let mut verdict = crate::integrity::verify_outcome(&job.program, &outcome);
                        if let Some(bytes) = flow.as_deref() {
                            verdict.merge(crate::integrity::verify_flow_bytes(&job.program, bytes));
                        }
                        if let Some(bytes) = cct.as_deref() {
                            verdict.merge(crate::integrity::verify_cct_bytes(bytes));
                        }
                        if verdict.is_clean() {
                            return JobExecution {
                                attempts: attempt,
                                retries,
                                panics,
                                limit_stops,
                                cycles: outcome.cycles(),
                                uops: outcome.machine.uops,
                                outcome: ExecOutcome::Done { flow, cct },
                                quarantines,
                                retry_schedule,
                            };
                        }
                        let detail = verdict.first().expect("dirty report").to_string();
                        observer(ExecEvent::Quarantined {
                            attempt,
                            reason: detail.clone(),
                        });
                        quarantines.push(QuarantinedAttempt {
                            attempt,
                            flow,
                            cct,
                            report: quarantine_report(&job.name, idx, attempt, &verdict),
                        });
                        (
                            JobFailure {
                                class: if integrity_retried {
                                    FailureClass::Permanent
                                } else {
                                    FailureClass::Transient
                                },
                                kind: FailureKind::Integrity(detail),
                            },
                            Some((outcome.cycles(), outcome.machine.uops)),
                        )
                    }
                    Some(err) => (
                        JobFailure::from_exec(err),
                        Some((outcome.cycles(), outcome.machine.uops)),
                    ),
                },
                Ok(Err(e)) => (JobFailure::from_profile_error(e), None),
                Err(payload) => (JobFailure::from_panic(payload), None),
            };
            if failure.is_limit() {
                limit_stops += 1;
            }
            if failure.is_panic() {
                panics += 1;
            }
            if failure.is_integrity() && !integrity_retried {
                // A quarantined profile is retryable exactly once — the
                // corruption may have been environmental — independent
                // of the transient retry budget; a second verification
                // failure is permanent.
                integrity_retried = true;
                retries += 1;
                let delay = self.backoff(idx, attempt);
                observer(ExecEvent::Retrying {
                    attempt,
                    class: failure.class,
                    delay_ms: delay.as_millis() as u64,
                });
                retry_schedule.push(RetryStep {
                    attempt,
                    class: failure.class,
                    delay_ms: delay.as_millis() as u64,
                });
                std::thread::sleep(delay);
                continue;
            }
            if failure.class == FailureClass::Transient
                && !failure.is_integrity()
                && retries < self.max_retries
            {
                retries += 1;
                let delay = self.backoff(idx, attempt);
                observer(ExecEvent::Retrying {
                    attempt,
                    class: failure.class,
                    delay_ms: delay.as_millis() as u64,
                });
                retry_schedule.push(RetryStep {
                    attempt,
                    class: failure.class,
                    delay_ms: delay.as_millis() as u64,
                });
                std::thread::sleep(delay);
                continue;
            }
            let (cycles, uops) = partial.unwrap_or((0, 0));
            return JobExecution {
                attempts: attempt,
                retries,
                panics,
                limit_stops,
                cycles,
                uops,
                outcome: ExecOutcome::Failed(failure),
                quarantines,
                retry_schedule,
            };
        }
    }
}

/// What a finished campaign did. The manifest is the persistent truth;
/// the counters feed `supervisor.*` metrics.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Final per-job state (also the last manifest written, when
    /// checkpointing was on).
    pub manifest: BatchManifest,
    /// Transient-failure retries across all jobs.
    pub retries: u64,
    /// Worker panics caught (injected or real).
    pub panics: u64,
    /// Attempts stopped by a [`GuestLimits`](pp_usim::GuestLimits) bound.
    pub limit_stops: u64,
    /// Checkpoint manifests written.
    pub checkpoint_writes: u64,
    /// Jobs skipped because a resumed manifest already had them done
    /// or failed.
    pub resumed_skips: u64,
    /// Finished attempts whose profiles failed integrity verification
    /// and were quarantined (each quarantined attempt counts once).
    pub quarantined: u64,
    /// Quarantined attempt-sets evicted by the oldest-first rotation
    /// (only when a quarantine cap is configured).
    pub quarantine_pruned: u64,
    /// Whether the campaign stopped before all jobs reached a final
    /// state (cancellation or an injected halt).
    pub interrupted: bool,
    /// Every classified retry across the campaign, sorted by
    /// `(job, attempt)` — a deterministic function of the campaign
    /// inputs regardless of worker count or interleaving.
    pub retry_schedule: Vec<JobRetry>,
}

impl BatchReport {
    /// Records the `supervisor.*` metric set into `recorder`.
    pub fn record_metrics<R: Recorder>(&self, recorder: &mut R) {
        let (pending, done, failed) = self.manifest.counts();
        recorder.counter("supervisor.jobs", self.manifest.jobs.len() as u64);
        recorder.counter("supervisor.jobs.done", done as u64);
        recorder.counter("supervisor.jobs.failed", failed as u64);
        recorder.counter("supervisor.jobs.pending", pending as u64);
        recorder.counter("supervisor.retries", self.retries);
        recorder.counter("supervisor.panics", self.panics);
        recorder.counter("supervisor.timeouts", self.limit_stops);
        recorder.counter("supervisor.checkpoint.writes", self.checkpoint_writes);
        recorder.counter("supervisor.resumed_skips", self.resumed_skips);
        recorder.counter("supervisor.quarantined", self.quarantined);
        recorder.counter("supervisor.quarantine.pruned", self.quarantine_pruned);
        recorder.counter("supervisor.interrupted", u64::from(self.interrupted));
    }
}

/// The batch supervisor. Configure with the builder methods, then call
/// [`Supervisor::run`].
#[derive(Clone, Debug)]
pub struct Supervisor {
    profiler: Profiler,
    workers: usize,
    max_retries: u32,
    backoff_base_ms: u64,
    backoff_cap_ms: u64,
    seed: u64,
    params: String,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u32,
    quarantine_cap: usize,
    cancel: CancelToken,
    fault_plan: BatchFaultPlan,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor {
            profiler: Profiler::default(),
            workers: 2,
            max_retries: 2,
            backoff_base_ms: 4,
            backoff_cap_ms: 250,
            seed: 0,
            params: String::new(),
            checkpoint_dir: None,
            checkpoint_every: 1,
            quarantine_cap: 0,
            cancel: CancelToken::new(),
            fault_plan: BatchFaultPlan::default(),
        }
    }
}

impl Supervisor {
    /// A supervisor running jobs through `profiler` (which carries the
    /// machine configuration and any [`GuestLimits`](pp_usim::GuestLimits)).
    pub fn new(profiler: Profiler) -> Supervisor {
        Supervisor {
            profiler,
            ..Supervisor::default()
        }
    }

    /// Worker thread count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Supervisor {
        self.workers = workers.max(1);
        self
    }

    /// Retry budget for transient failures (attempts = retries + 1).
    pub fn with_max_retries(mut self, retries: u32) -> Supervisor {
        self.max_retries = retries;
        self
    }

    /// Backoff base and cap, in milliseconds. Delay before retry `n`
    /// (1-based) is `min(cap, base·2ⁿ⁻¹) + jitter`, jitter seeded from
    /// `(seed, job, attempt)` — deterministic across runs.
    pub fn with_backoff_ms(mut self, base: u64, cap: u64) -> Supervisor {
        self.backoff_base_ms = base;
        self.backoff_cap_ms = cap.max(base);
        self
    }

    /// Seed for backoff jitter; stored in the manifest.
    pub fn with_seed(mut self, seed: u64) -> Supervisor {
        self.seed = seed;
        self
    }

    /// Campaign-parameter tag stored in the manifest; resume refuses a
    /// checkpoint whose tag differs.
    pub fn with_params(mut self, params: impl Into<String>) -> Supervisor {
        self.params = params.into();
        self
    }

    /// Directory for the manifest and finished-job profiles. Without
    /// one, nothing persists (and resume is impossible).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Supervisor {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Completions between checkpoint writes (clamped to ≥ 1; a final
    /// manifest is always written on clean shutdown).
    pub fn with_checkpoint_every(mut self, every: u32) -> Supervisor {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Cap on quarantined attempt-sets kept on disk (0 = unbounded).
    /// When a new quarantine write would exceed the cap, the oldest
    /// attempt-sets rotate out — a repeatedly corrupt job cannot fill
    /// the disk of a long campaign or server.
    pub fn with_quarantine_cap(mut self, cap: usize) -> Supervisor {
        self.quarantine_cap = cap;
        self
    }

    /// The token that requests graceful shutdown: scheduling stops,
    /// in-flight jobs drain, a final manifest is written. Cancelling is
    /// async-signal-safe, so a SIGINT handler may call it directly.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Supervisor {
        self.cancel = cancel;
        self
    }

    /// Installs supervisor-level fault injection.
    pub fn with_fault_plan(mut self, plan: BatchFaultPlan) -> Supervisor {
        self.fault_plan = plan;
        self
    }

    /// The cancel token this supervisor watches.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The per-job executor this supervisor's workers run.
    fn executor(&self) -> JobExecutor {
        JobExecutor::new(self.profiler.clone())
            .with_max_retries(self.max_retries)
            .with_backoff_ms(self.backoff_base_ms, self.backoff_cap_ms)
            .with_seed(self.seed)
    }

    /// Runs the campaign. With `resume`, a valid manifest in the
    /// checkpoint directory pre-marks finished jobs (their profile bytes
    /// are re-validated against the stored CRCs; mismatches re-run); a
    /// torn or corrupt manifest is a typed [`PpError::Corrupt`] error.
    ///
    /// Job execution failures never abort the campaign — they land in
    /// the manifest as `failed` entries. The `Err` cases are
    /// campaign-level: unusable resume state or checkpoint I/O.
    ///
    /// # Errors
    ///
    /// [`PpError::Usage`] when `resume` is set without a checkpoint
    /// directory, or the manifest disagrees with the live campaign
    /// (params, seed, job list); [`PpError::Corrupt`] for a torn or
    /// altered manifest; [`PpError::Io`] when checkpoint writes fail.
    pub fn run(&self, jobs: &[JobSpec], resume: bool) -> Result<BatchReport, PpError> {
        let _span = pp_obs::span!("batch.run");
        suppress_worker_panic_output();
        if let Some(dir) = &self.checkpoint_dir {
            std::fs::create_dir_all(dir).map_err(|e| PpError::io(dir.display().to_string(), e))?;
        }

        let mut entries: Vec<JobEntry> = jobs.iter().map(|j| JobEntry::pending(&j.name)).collect();
        let mut resumed_skips = 0u64;
        if resume {
            let prior = self.load_resume_state(jobs)?;
            for (entry, old) in entries.iter_mut().zip(prior.jobs) {
                if old.status == JobStatus::Pending {
                    continue;
                }
                let dir = self.checkpoint_dir.as_deref().expect("resume has a dir");
                let profiles_ok = old
                    .flow
                    .iter()
                    .chain(old.cct.iter())
                    .all(|r| r.validates(dir));
                if old.status == JobStatus::Failed || profiles_ok {
                    *entry = old;
                    resumed_skips += 1;
                } else {
                    pp_obs::warn!(
                        "checkpoint: job {} profile bytes do not validate; re-running",
                        old.name
                    );
                }
            }
        }

        let queue: Mutex<VecDeque<usize>> = Mutex::new(
            entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.status == JobStatus::Pending)
                .map(|(i, _)| i)
                .collect(),
        );
        let (tx, rx) = mpsc::channel::<WorkerMsg>();
        let want_profiles = self.checkpoint_dir.is_some();

        let mut report = BatchReport {
            manifest: BatchManifest {
                seed: self.seed,
                params: self.params.clone(),
                jobs: Vec::new(),
            },
            retries: 0,
            panics: 0,
            limit_stops: 0,
            checkpoint_writes: 0,
            resumed_skips,
            quarantined: 0,
            quarantine_pruned: 0,
            interrupted: false,
            retry_schedule: Vec::new(),
        };

        let coordinator_result = std::thread::scope(|scope| -> Result<(), PpError> {
            for w in 0..self.workers {
                let tx = tx.clone();
                let queue = &queue;
                std::thread::Builder::new()
                    .name(format!("{WORKER_THREAD_PREFIX}-{w}"))
                    .spawn_scoped(scope, move || {
                        self.worker_loop(jobs, queue, &tx, want_profiles)
                    })
                    .expect("worker thread spawns");
            }
            drop(tx);

            let mut since_checkpoint = 0u32;
            let mut halted = false;
            for msg in rx.iter() {
                let exec = msg.execution;
                report.retries += u64::from(exec.retries);
                report.panics += u64::from(exec.panics);
                report.limit_stops += u64::from(exec.limit_stops);
                report
                    .retry_schedule
                    .extend(exec.retry_schedule.iter().map(|s| JobRetry {
                        job: msg.idx,
                        attempt: s.attempt,
                        class: s.class,
                        delay_ms: s.delay_ms,
                    }));
                if !exec.quarantines.is_empty() {
                    report.quarantined += exec.quarantines.len() as u64;
                    if let Some(dir) = &self.checkpoint_dir {
                        let stem = format!("job-{:03}", msg.idx);
                        write_quarantine(dir, &stem, &exec.quarantines)
                            .map_err(|e| PpError::io("quarantine", e))?;
                        if self.quarantine_cap > 0 {
                            report.quarantine_pruned += manifest::prune_quarantine(
                                &dir.join("quarantine"),
                                self.quarantine_cap,
                            )
                            .map_err(|e| PpError::io("quarantine rotation", e))?;
                        }
                    }
                }
                let entry = &mut entries[msg.idx];
                entry.attempts = exec.attempts;
                entry.cycles = exec.cycles;
                entry.uops = exec.uops;
                match exec.outcome {
                    ExecOutcome::Done { flow, cct } => {
                        entry.status = JobStatus::Done;
                        entry.detail.clear();
                        if let Some(dir) = &self.checkpoint_dir {
                            entry.flow = self
                                .persist_profile(dir, msg.idx, "flow", flow.as_deref())
                                .map_err(|e| PpError::io("profile checkpoint", e))?;
                            entry.cct = self
                                .persist_profile(dir, msg.idx, "cct", cct.as_deref())
                                .map_err(|e| PpError::io("profile checkpoint", e))?;
                        }
                    }
                    ExecOutcome::Failed(failure) => {
                        entry.status = JobStatus::Failed;
                        entry.detail = failure.to_string();
                        pp_obs::warn!(
                            "batch: job {} failed after {} attempts: {}",
                            entry.name,
                            entry.attempts,
                            entry.detail
                        );
                    }
                }
                since_checkpoint += 1;
                if self.checkpoint_dir.is_some() && since_checkpoint >= self.checkpoint_every {
                    since_checkpoint = 0;
                    self.write_checkpoint(&entries, &mut report)?;
                    if self
                        .fault_plan
                        .halt_after_checkpoints
                        .is_some_and(|n| report.checkpoint_writes >= u64::from(n))
                    {
                        // Simulated kill -9: stop consuming results and
                        // skip every end-of-run write.
                        halted = true;
                        self.cancel.cancel();
                        break;
                    }
                }
            }
            report.interrupted = halted || self.cancel.is_cancelled();
            if !halted {
                // Drain stragglers is unnecessary — the channel closing
                // means every worker exited — but a graceful stop still
                // writes the final manifest with pending entries intact.
                if self.checkpoint_dir.is_some() {
                    self.write_checkpoint(&entries, &mut report)?;
                }
            }
            Ok(())
        });
        coordinator_result?;

        report.retry_schedule.sort_by_key(|r| (r.job, r.attempt));
        report.manifest.jobs = entries;
        Ok(report)
    }

    /// Loads and cross-checks the resume manifest.
    fn load_resume_state(&self, jobs: &[JobSpec]) -> Result<BatchManifest, PpError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Err(PpError::Usage(
                "resume requires a checkpoint directory".to_string(),
            ));
        };
        let prior = BatchManifest::load(dir)?;
        if prior.params != self.params || prior.seed != self.seed {
            return Err(PpError::Usage(format!(
                "checkpoint was written by a different campaign \
                 (stored seed {} params \"{}\", live seed {} params \"{}\")",
                prior.seed, prior.params, self.seed, self.params
            )));
        }
        if prior.jobs.len() != jobs.len()
            || prior.jobs.iter().zip(jobs).any(|(e, j)| e.name != j.name)
        {
            return Err(PpError::Usage(
                "checkpoint job list does not match the live campaign".to_string(),
            ));
        }
        Ok(prior)
    }

    /// One worker: pop → run with retries → report, until the queue is
    /// empty or the campaign is cancelled.
    fn worker_loop(
        &self,
        jobs: &[JobSpec],
        queue: &Mutex<VecDeque<usize>>,
        tx: &mpsc::Sender<WorkerMsg>,
        want_profiles: bool,
    ) {
        let executor = self.executor();
        loop {
            if self.cancel.is_cancelled() {
                return;
            }
            let Some(idx) = queue.lock().expect("queue lock").pop_front() else {
                return;
            };
            let execution = executor.execute(
                idx as u64,
                &jobs[idx],
                self.fault_plan.job_faults(idx),
                want_profiles,
            );
            // A send failure means the coordinator halted; nothing left
            // to report to.
            if tx.send(WorkerMsg { idx, execution }).is_err() {
                return;
            }
        }
    }

    /// Atomically writes `bytes` (when present) as job `idx`'s profile
    /// file and returns its manifest ref.
    fn persist_profile(
        &self,
        dir: &std::path::Path,
        idx: usize,
        ext: &str,
        bytes: Option<&[u8]>,
    ) -> std::io::Result<Option<ProfileRef>> {
        let Some(bytes) = bytes else {
            return Ok(None);
        };
        let file = format!("job-{idx:03}.{ext}");
        manifest::write_atomic(&dir.join(&file), bytes)?;
        Ok(Some(ProfileRef::for_bytes(file, bytes)))
    }

    /// Writes one checkpoint manifest (and applies the torn-write
    /// injection when the plan says so).
    fn write_checkpoint(
        &self,
        entries: &[JobEntry],
        report: &mut BatchReport,
    ) -> Result<(), PpError> {
        let _span = pp_obs::span!("batch.checkpoint");
        let dir = self.checkpoint_dir.as_deref().expect("checkpointing on");
        let snapshot = BatchManifest {
            seed: self.seed,
            params: self.params.clone(),
            jobs: entries.to_vec(),
        };
        snapshot.save_atomic(dir)?;
        report.checkpoint_writes += 1;
        if let Some((write, keep)) = self.fault_plan.truncate_checkpoint {
            if report.checkpoint_writes == u64::from(write) {
                manifest::truncate_manifest(dir, keep)
                    .map_err(|e| PpError::io("checkpoint truncation injection", e))?;
            }
        }
        Ok(())
    }
}

/// Serializes whichever profiles the outcome carries into byte vectors
/// (envelope included).
fn serialize_profiles(outcome: &RunOutcome) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
    let flow = outcome.flow.as_ref().and_then(|f| {
        let mut buf = Vec::new();
        f.write_to(&mut buf).ok().map(|()| buf)
    });
    let cct = outcome.cct.as_ref().and_then(|c| {
        let mut buf = Vec::new();
        pp_cct::write_cct(c, &mut buf).ok().map(|()| buf)
    });
    (flow, cct)
}

struct WorkerMsg {
    idx: usize,
    execution: JobExecution,
}

/// Renders the quarantine report for one failed verification: every
/// violated invariant, the check count, and the disposition. A pure
/// function of the (deterministic) run, so an interrupted-and-resumed
/// campaign rewrites byte-identical reports.
fn quarantine_report(
    name: &str,
    idx: u64,
    attempt: u32,
    verdict: &crate::integrity::IntegrityReport,
) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "quarantined profile: job {name} (index {idx}), attempt {attempt}\n\
         checks run: {}\nviolations: {}\n",
        verdict.checks,
        verdict.violations.len()
    );
    for v in &verdict.violations {
        let _ = writeln!(s, "  - {v}");
    }
    s.push_str("disposition: failed integrity verification (exit code 2)\n");
    s
}

/// Writes one job's quarantined artifacts and reports under
/// `<dir>/quarantine/`, one attempt-set per failed attempt, stems
/// `<stem_base>-attempt-<n>`.
pub(crate) fn write_quarantine(
    dir: &std::path::Path,
    stem_base: &str,
    quarantines: &[QuarantinedAttempt],
) -> std::io::Result<()> {
    let qdir = dir.join("quarantine");
    std::fs::create_dir_all(&qdir)?;
    for q in quarantines {
        let stem = format!("{stem_base}-attempt-{}", q.attempt);
        if let Some(bytes) = &q.flow {
            manifest::write_atomic(&qdir.join(format!("{stem}.flow")), bytes)?;
        }
        if let Some(bytes) = &q.cct {
            manifest::write_atomic(&qdir.join(format!("{stem}.cct")), bytes)?;
        }
        manifest::write_atomic(
            &qdir.join(format!("{stem}.report.txt")),
            q.report.as_bytes(),
        )?;
    }
    Ok(())
}

/// Wraps the global panic hook (once) so caught panics on supervisor
/// worker threads don't spew the default message/backtrace to stderr —
/// they surface as typed [`JobFailure`]s instead. Panics on every other
/// thread keep the previous hook's behavior.
pub(crate) fn suppress_worker_panic_output() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX));
            if !on_worker {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_errors_classify_by_determinism() {
        assert_eq!(
            classify_exec(&ExecError::FaultAbort { uops: 5 }),
            FailureClass::Transient
        );
        assert_eq!(
            classify_exec(&ExecError::LimitExceeded(LimitKind::Deadline {
                deadline_ms: 10
            })),
            FailureClass::Transient
        );
        assert_eq!(
            classify_exec(&ExecError::LimitExceeded(LimitKind::Fuel { budget: 1 })),
            FailureClass::Permanent
        );
        assert_eq!(
            classify_exec(&ExecError::InstructionLimit),
            FailureClass::Permanent
        );
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let x = JobExecutor::default().with_backoff_ms(4, 32).with_seed(7);
        let a = x.backoff(3, 2);
        let b = x.backoff(3, 2);
        assert_eq!(a, b, "same (seed, job, attempt) ⇒ same delay");
        for attempt in 1..12 {
            let d = x.backoff(0, attempt);
            assert!(d.as_millis() <= 32 + 4, "attempt {attempt}: {d:?}");
        }
        let zero = JobExecutor::default().with_backoff_ms(0, 0).backoff(1, 1);
        assert_eq!(zero, Duration::ZERO);
    }

    #[test]
    fn panic_payload_messages_survive() {
        let f = JobFailure::from_panic(Box::new("boom"));
        assert!(f.is_panic());
        assert_eq!(f.class, FailureClass::Transient);
        assert_eq!(f.to_string(), "panicked: boom");
        let f = JobFailure::from_panic(Box::new(format!("job {} died", 3)));
        assert_eq!(f.to_string(), "panicked: job 3 died");
        let f = JobFailure::from_panic(Box::new(17u32));
        assert_eq!(f.to_string(), "panicked: opaque panic payload");
    }

    #[test]
    fn job_faults_slice_by_index() {
        let plan = BatchFaultPlan::default()
            .panic_on_job(2, 1)
            .transient_on_job(3, 2)
            .corrupt_on_job(2, 1);
        let f2 = plan.job_faults(2);
        assert_eq!(
            (
                f2.panic_attempts,
                f2.transient_attempts,
                f2.corrupt_attempts
            ),
            (1, 0, 1)
        );
        let f3 = plan.job_faults(3);
        assert_eq!(
            (
                f3.panic_attempts,
                f3.transient_attempts,
                f3.corrupt_attempts
            ),
            (0, 2, 0)
        );
        let f0 = plan.job_faults(0);
        assert_eq!(
            (
                f0.panic_attempts,
                f0.transient_attempts,
                f0.corrupt_attempts
            ),
            (0, 0, 0)
        );
    }
}
