//! Profile-as-a-service: the long-running job spine behind `pp serve`.
//!
//! The batch [`Supervisor`](crate::Supervisor) runs a fixed campaign and
//! exits; a [`Service`] runs the same job engine — worker pool,
//! panic-isolated execution ([`JobExecutor`]), result fold, checkpoints,
//! manifest adoption — for as long as the process lives, and adds
//! admission, an intake journal and the event bus in front of it. The
//! robustness spine:
//!
//! * **bounded admission**: a fixed-capacity queue; a submit that would
//!   exceed it is rejected *immediately* with a typed
//!   [`AdmitError::Overloaded`] — backpressure is explicit, never a
//!   blocked client;
//! * **per-client quotas**: a client may hold at most N jobs in flight
//!   (queued + running); excess submits get
//!   [`AdmitError::QuotaExceeded`];
//! * **shed/drain state machine**: `Accepting → Draining → Stopped`.
//!   Draining refuses intake ([`AdmitError::Draining`]), lets in-flight
//!   jobs finish, leaves queued jobs pending, and writes a final
//!   checkpoint — the SIGTERM path;
//! * **crash-safe recovery**: every admitted job is appended to a
//!   write-ahead intake journal (`intake.jsonl`, canonical JSON, one
//!   line per job, fsynced before the submit is acknowledged) and
//!   terminal states checkpoint into the same `PPBAT01` manifest the
//!   batch supervisor uses. After a `kill -9`, [`Service::start`]
//!   replays the journal, adopts manifest entries whose artifact bytes
//!   still validate, and re-queues the rest — converging on artifacts
//!   byte-identical to an uninterrupted run (everything persisted is a
//!   function of the admitted job sequence and the seed).
//!
//! Job identity is the admission order: job `k` is the `k`-th journal
//! line, its artifacts are `job-<k:06>.flow`/`.cct`, and manifest row
//! `k` is its entry. The journal is the authoritative job list; the
//! manifest is a prefix snapshot of terminal states.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pp_cct::SerializeError;
use pp_ir::Program;
use pp_obs::events::{Event, EventBus, EventFilter, Payload, Subscription};
use pp_obs::json::Json;
use pp_obs::{Recorder, Registry};
use pp_usim::CancelToken;

use crate::engine::{adopt_manifest, Engine, EngineConfig, JobRecord, Observer, State};
pub use crate::engine::{JobState, ServicePhase};
use crate::error::PpError;
use crate::profiler::{Profiler, RunConfig};
use crate::supervisor::manifest::{self, BatchManifest};
use crate::supervisor::{ExecEvent, JobExecutor, JobFaults, JobSpec};

/// File name of the write-ahead intake journal inside the service
/// checkpoint directory.
pub const JOURNAL_FILE: &str = "intake.jsonl";

/// File name of the terminal-event journal next to [`JOURNAL_FILE`]:
/// one fsynced line per job that reached `Done`/`Failed`, so a
/// restarted daemon can replay terminal events for adopted jobs onto
/// the event bus.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Resolves a client-supplied spec string (e.g. `target=loops
/// scale=0.5 config=combined`) into a runnable program and
/// configuration. Lives behind an `Arc` so the CLI can close over its
/// own target/suite loaders without `pp-core` knowing about them.
pub type SpecResolver = Arc<dyn Fn(&str) -> Result<(Program, RunConfig), String> + Send + Sync>;

/// Why a submission was refused at the door. Every variant is a typed,
/// immediate answer — admission never blocks the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded admission queue is full; back off and resubmit.
    Overloaded {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The client already holds its quota of in-flight jobs.
    QuotaExceeded {
        /// The offending client.
        client: String,
        /// Its configured in-flight cap.
        quota: usize,
    },
    /// The service is draining for shutdown and refuses new intake.
    Draining,
    /// The service has stopped.
    Stopped,
    /// The spec string did not resolve to a runnable job.
    BadSpec(String),
    /// Journaling the admission failed; the job was NOT accepted.
    Io(String),
    /// The transport to the service failed (connect refused, reset,
    /// deadline elapsed); the request never reached admission.
    Transport(String),
}

impl AdmitError {
    /// Short machine-readable tag for the wire protocol and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            AdmitError::Overloaded { .. } => "overloaded",
            AdmitError::QuotaExceeded { .. } => "quota-exceeded",
            AdmitError::Draining => "draining",
            AdmitError::Stopped => "stopped",
            AdmitError::BadSpec(_) => "bad-spec",
            AdmitError::Io(_) => "io",
            AdmitError::Transport(_) => "transport",
        }
    }
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Overloaded { capacity } => {
                write!(f, "admission queue full ({capacity} jobs); resubmit later")
            }
            AdmitError::QuotaExceeded { client, quota } => {
                write!(f, "client {client} already holds {quota} in-flight jobs")
            }
            AdmitError::Draining => write!(f, "service is draining; no new intake"),
            AdmitError::Stopped => write!(f, "service has stopped"),
            AdmitError::BadSpec(e) => write!(f, "unusable job spec: {e}"),
            AdmitError::Io(e) => write!(f, "intake journal write failed: {e}"),
            AdmitError::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Periodic fault injection for soak testing: every N-th admitted job
/// (1-based: jobs N−1, 2N−1, …) gets the fault on its first attempt,
/// exercising the retry/quarantine paths under sustained load. 0 means
/// never.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceFaultPlan {
    /// Panic the worker on every N-th job's first attempt.
    pub panic_every: u64,
    /// Inject a transient guest abort on every N-th job's first attempt.
    pub transient_every: u64,
    /// Clobber the counters (corrupt profile → quarantine + one retry)
    /// on every N-th job's first attempt.
    pub corrupt_every: u64,
}

impl ServiceFaultPlan {
    /// The executor-level faults for job `id`.
    pub fn faults_for(&self, id: u64) -> JobFaults {
        let hit = |every: u64| every > 0 && (id + 1).is_multiple_of(every);
        JobFaults {
            panic_attempts: u32::from(hit(self.panic_every)),
            transient_attempts: u32::from(hit(self.transient_every)),
            corrupt_attempts: u32::from(hit(self.corrupt_every)),
        }
    }
}

/// Service configuration; see field docs for defaults.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded admission queue capacity (clamped to ≥ 1); a submit
    /// beyond it is [`AdmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Max in-flight (queued + running) jobs per client; 0 = unlimited.
    pub per_client_quota: usize,
    /// Transient-failure retry budget per job.
    pub max_retries: u32,
    /// Backoff base, in milliseconds (see [`JobExecutor::backoff`]).
    pub backoff_base_ms: u64,
    /// Backoff cap, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for deterministic backoff jitter; persisted in the
    /// manifest, and recovery refuses a checkpoint with a different one.
    pub seed: u64,
    /// Campaign-parameter tag persisted in the manifest; recovery
    /// refuses a checkpoint whose tag differs.
    pub params: String,
    /// Terminal job states between checkpoint writes (clamped to ≥ 1).
    pub checkpoint_every: u32,
    /// Cap on quarantined attempt-sets kept on disk (0 = unbounded).
    pub quarantine_cap: usize,
    /// Soak-test fault injection.
    pub fault_plan: ServiceFaultPlan,
    /// Start with workers parked (tests use this to fill the queue
    /// deterministically); release with [`Service::unpause`].
    pub paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            per_client_quota: 0,
            max_retries: 2,
            backoff_base_ms: 4,
            backoff_cap_ms: 250,
            seed: 0,
            params: String::new(),
            checkpoint_every: 8,
            quarantine_cap: 0,
            fault_plan: ServiceFaultPlan::default(),
            paused: false,
        }
    }
}

/// A client-facing snapshot of one job.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Admission-order id.
    pub id: u64,
    /// Submitted job name.
    pub name: String,
    /// Submitting client.
    pub client: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Attempts consumed so far.
    pub attempts: u32,
    /// Guest cycles of the final attempt (terminal states only).
    pub cycles: u64,
    /// Retired µops of the final attempt.
    pub uops: u64,
    /// Failure detail ("" unless failed).
    pub detail: String,
    /// Flow-profile artifact file name, when persisted.
    pub flow: Option<String>,
    /// CCT artifact file name, when persisted.
    pub cct: Option<String>,
}

impl JobView {
    /// Renders the view as a canonical JSON object for the wire.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Num(self.id as f64)),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("client".to_string(), Json::Str(self.client.clone())),
            (
                "state".to_string(),
                Json::Str(self.state.as_str().to_string()),
            ),
            ("attempts".to_string(), Json::Num(f64::from(self.attempts))),
            ("cycles".to_string(), Json::Num(self.cycles as f64)),
            ("uops".to_string(), Json::Num(self.uops as f64)),
        ];
        if !self.detail.is_empty() {
            fields.push(("detail".to_string(), Json::Str(self.detail.clone())));
        }
        if let Some(f) = &self.flow {
            fields.push(("flow".to_string(), Json::Str(f.clone())));
        }
        if let Some(c) = &self.cct {
            fields.push(("cct".to_string(), Json::Str(c.clone())));
        }
        Json::Obj(fields)
    }
}

/// A point-in-time snapshot of the service counters (monotonic) and
/// queue gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Jobs admitted (journaled and queued).
    pub admitted: u64,
    /// Submits refused with [`AdmitError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Submits refused with [`AdmitError::QuotaExceeded`].
    pub rejected_quota: u64,
    /// Submits refused while draining or stopped.
    pub rejected_draining: u64,
    /// Submits whose spec did not resolve.
    pub rejected_bad_spec: u64,
    /// Jobs that reached `Done`.
    pub done: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Classified retries across all jobs.
    pub retries: u64,
    /// Worker panics caught.
    pub panics: u64,
    /// Attempts stopped on a guest-limit bound.
    pub limit_stops: u64,
    /// Attempts quarantined for failed verification.
    pub quarantined: u64,
    /// Quarantine attempt-sets evicted by rotation.
    pub quarantine_pruned: u64,
    /// Checkpoint manifests written.
    pub checkpoint_writes: u64,
    /// Terminal jobs adopted from the manifest on recovery.
    pub recovered_adopted: u64,
    /// Journaled jobs re-queued on recovery.
    pub recovered_requeued: u64,
    /// Jobs currently queued (gauge).
    pub queued: u64,
    /// Jobs currently running (gauge).
    pub running: u64,
    /// Total jobs ever admitted to this directory (gauge).
    pub jobs: u64,
}

impl ServiceMetrics {
    /// Records the `service.*` metric set into `recorder`.
    pub fn record_metrics<R: Recorder>(&self, recorder: &mut R) {
        recorder.counter("service.admitted", self.admitted);
        recorder.counter("service.rejected.overloaded", self.rejected_overloaded);
        recorder.counter("service.rejected.quota", self.rejected_quota);
        recorder.counter("service.rejected.draining", self.rejected_draining);
        recorder.counter("service.rejected.bad_spec", self.rejected_bad_spec);
        recorder.counter("service.jobs.done", self.done);
        recorder.counter("service.jobs.failed", self.failed);
        recorder.counter("service.retries", self.retries);
        recorder.counter("service.panics", self.panics);
        recorder.counter("service.timeouts", self.limit_stops);
        recorder.counter("service.quarantined", self.quarantined);
        recorder.counter("service.quarantine.pruned", self.quarantine_pruned);
        recorder.counter("service.checkpoint.writes", self.checkpoint_writes);
        recorder.counter("service.recovered.adopted", self.recovered_adopted);
        recorder.counter("service.recovered.requeued", self.recovered_requeued);
        recorder.gauge("service.queue.depth", self.queued as f64);
        recorder.gauge("service.jobs.running", self.running as f64);
    }

    /// Renders the snapshot as a canonical JSON object for the wire.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::Obj(vec![
            ("admitted".to_string(), n(self.admitted)),
            (
                "rejected_overloaded".to_string(),
                n(self.rejected_overloaded),
            ),
            ("rejected_quota".to_string(), n(self.rejected_quota)),
            ("rejected_draining".to_string(), n(self.rejected_draining)),
            ("rejected_bad_spec".to_string(), n(self.rejected_bad_spec)),
            ("done".to_string(), n(self.done)),
            ("failed".to_string(), n(self.failed)),
            ("retries".to_string(), n(self.retries)),
            ("panics".to_string(), n(self.panics)),
            ("limit_stops".to_string(), n(self.limit_stops)),
            ("quarantined".to_string(), n(self.quarantined)),
            ("quarantine_pruned".to_string(), n(self.quarantine_pruned)),
            ("checkpoint_writes".to_string(), n(self.checkpoint_writes)),
            ("recovered_adopted".to_string(), n(self.recovered_adopted)),
            ("recovered_requeued".to_string(), n(self.recovered_requeued)),
            ("queued".to_string(), n(self.queued)),
            ("running".to_string(), n(self.running)),
            ("jobs".to_string(), n(self.jobs)),
        ])
    }
}

/// What a shut-down service did, for final reporting.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// The final manifest (also the last checkpoint written).
    pub manifest: BatchManifest,
    /// Final counter/gauge snapshot.
    pub metrics: ServiceMetrics,
}

impl JobView {
    fn of(id: u64, rec: &JobRecord<'_>) -> JobView {
        let e = &rec.entry;
        JobView {
            id,
            name: e.name.clone(),
            client: rec.client.clone(),
            state: rec.state(),
            attempts: e.attempts,
            cycles: e.cycles,
            uops: e.uops,
            detail: e.detail.clone(),
            flow: e.flow.as_ref().map(|r| r.file.clone()),
            cct: e.cct.as_ref().map(|r| r.file.clone()),
        }
    }
}

/// Admission and recovery counters, updated lock-free (the engine
/// counts everything after admission).
#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_bad_spec: AtomicU64,
    recovered_adopted: AtomicU64,
    recovered_requeued: AtomicU64,
}

/// The service's observability plane, fed by the engine's job
/// transitions. Job-lifecycle events publish while the engine's state
/// lock is held, so per-job ordering on the bus mirrors the state
/// machine; the bus, histogram and journal locks are only ever taken
/// *inside* the state lock, never the reverse.
struct Plane {
    bus: EventBus,
    /// Live timing histograms (`service.queue_wait_us`,
    /// `service.exec_wall_us`, `service.admit.*_us`) and transport
    /// accounting.
    hists: Mutex<Registry>,
    /// Terminal-event journal ([`EVENTS_FILE`]); telemetry, so write
    /// failures warn rather than fail the job.
    events_journal: Mutex<File>,
}

impl Observer for Plane {
    fn started(&self, id: u64, rec: &JobRecord<'_>, worker: u64) {
        let queue_wait_us = rec.started_at.map_or(0, |t| {
            t.saturating_duration_since(rec.admitted_at).as_micros() as u64
        });
        self.bus.publish(Event::job_event(
            id,
            &rec.client,
            &rec.entry.name,
            Payload::Started { worker },
        ));
        self.observe("service.queue_wait_us", queue_wait_us);
    }

    fn exec_event(&self, id: u64, client: &str, name: &str, ev: ExecEvent) {
        let payload = match ev {
            ExecEvent::Retrying {
                attempt,
                class,
                delay_ms,
            } => Payload::Retrying {
                class: class.as_str().to_string(),
                attempt,
                delay_ms,
            },
            ExecEvent::Quarantined { attempt, reason } => Payload::Quarantined { attempt, reason },
        };
        self.bus
            .publish(Event::job_event(id, client, name, payload));
    }

    /// Journals the terminal event (fsynced, so a restart can replay it
    /// for adopted jobs), then publishes it to close the job's
    /// lifecycle on the bus.
    fn finished(&self, id: u64, rec: &JobRecord<'_>) {
        let wall_us = rec.started_at.map_or(0, |t| t.elapsed().as_micros() as u64);
        let outcome = rec.state().as_str();
        let line = event_journal_line(id, rec, outcome, wall_us);
        let mut journal = self.events_journal.lock().expect("events journal");
        if let Err(e) = append_journal(&mut journal, &line) {
            pp_obs::warn!("service: terminal-event journal write failed: {e}");
        }
        drop(journal);
        self.bus.publish(Event::job_event(
            id,
            &rec.client,
            &rec.entry.name,
            Payload::Done {
                outcome: outcome.to_string(),
                wall_us,
                attempts: rec.entry.attempts,
            },
        ));
        self.observe("service.exec_wall_us", wall_us);
    }
}

impl Plane {
    fn observe(&self, name: &'static str, value: u64) {
        self.hists
            .lock()
            .expect("service hists")
            .observe(name, value);
    }
}

/// The profile service: the job engine plus admission, the intake
/// journal, and the event bus. Methods take `&self`; the worker pool
/// holds an `Arc` to the engine.
pub struct Service {
    config: ServiceConfig,
    engine: Arc<Engine<'static>>,
    /// The thread running the engine's worker pool.
    pool: Mutex<Option<JoinHandle<()>>>,
    plane: Arc<Plane>,
    resolver: SpecResolver,
    dir: PathBuf,
    /// The write-ahead intake journal; appended under the engine's
    /// state lock so line `k` is job `k`.
    journal: Mutex<File>,
    counters: Counters,
    hard_cancel: CancelToken,
}

impl Service {
    /// Starts the service over `dir`: recovers any prior journal and
    /// checkpoint in it, then spawns the worker pool. The `profiler`
    /// carries machine config and guest limits; the service adds its
    /// own hard-cancel token to those limits (see
    /// [`Service::hard_cancel_token`]).
    ///
    /// Recovery replays the intake journal (the authoritative job list)
    /// and adopts the manifest rows that still vouch for themselves;
    /// everything else re-queues.
    ///
    /// # Errors
    ///
    /// [`PpError::Io`] when the directory or journal cannot be used;
    /// [`PpError::Corrupt`] for an unusable journal or manifest;
    /// [`PpError::Usage`] when the checkpoint belongs to a different
    /// campaign (seed/params/job-list mismatch) or a journaled spec no
    /// longer resolves.
    pub fn start(
        config: ServiceConfig,
        profiler: Profiler,
        resolver: SpecResolver,
        dir: impl Into<PathBuf>,
    ) -> Result<Service, PpError> {
        let _span = pp_obs::span!("service.start");
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| PpError::io(dir.display().to_string(), e))?;

        let hard_cancel = CancelToken::new();
        let profiler = {
            let limits = profiler.limits().clone().with_cancel(hard_cancel.clone());
            profiler.with_limits(limits)
        };
        let executor = JobExecutor::new(profiler)
            .with_max_retries(config.max_retries)
            .with_backoff_ms(config.backoff_base_ms, config.backoff_cap_ms)
            .with_seed(config.seed);

        let mut jobs: Vec<JobRecord> = Vec::new();
        let journal = replay_journal(&dir.join(JOURNAL_FILE), OnCorrupt::Fail, |n, line| {
            let corrupt = |what: String| {
                PpError::Corrupt(SerializeError::Format(format!(
                    "intake journal line {n} {what}"
                )))
            };
            let field = |key: &str| {
                line.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| corrupt(format!("lacks \"{key}\"")))
            };
            let id = line
                .get("id")
                .and_then(Json::as_f64)
                .ok_or_else(|| corrupt("lacks \"id\"".to_string()))? as u64;
            if id != n as u64 {
                return Err(corrupt(format!("is out of order: it claims id {id}")));
            }
            let spec = field("spec")?;
            let (program, run_config) = resolver(spec).map_err(|e| {
                PpError::Usage(format!(
                    "journaled job {id} spec \"{spec}\" no longer resolves: {e}"
                ))
            })?;
            jobs.push(JobRecord::new(
                field("client")?,
                Cow::Owned(JobSpec::new(field("name")?, program, run_config)),
                config.fault_plan.faults_for(id),
            ));
            Ok(())
        })?;
        let adopted = if dir.join(manifest::MANIFEST_FILE).is_file() {
            adopt_manifest(&dir, config.seed, &config.params, &mut jobs)?
        } else {
            0
        };
        let counters = Counters::default();
        let requeued = jobs.len() as u64 - adopted;
        if !jobs.is_empty() {
            pp_obs::info!(
                "service: recovered {} journaled jobs ({adopted} adopted, {requeued} re-queued)",
                jobs.len()
            );
        }
        counters.recovered_adopted.store(adopted, Ordering::Relaxed);
        counters
            .recovered_requeued
            .store(requeued, Ordering::Relaxed);

        // The latest terminal-event journal entry per job id (a job
        // re-run after a failed adoption writes a second line; last
        // wins).
        let mut wall_us: HashMap<u64, u64> = HashMap::new();
        let events_journal =
            replay_journal(&dir.join(EVENTS_FILE), OnCorrupt::Truncate, |_, line| {
                let job = line.get("job").and_then(Json::as_f64).ok_or_else(|| {
                    PpError::Corrupt(SerializeError::Format("lacks \"job\"".to_string()))
                })?;
                let wall = line.get("wall_us").and_then(Json::as_f64).unwrap_or(0.0);
                wall_us.insert(job as u64, wall as u64);
                Ok(())
            })?;
        let plane = Arc::new(Plane {
            bus: EventBus::default(),
            hists: Mutex::new(Registry::new()),
            events_journal: Mutex::new(events_journal),
        });
        // Replay terminal events for adopted jobs (in id order, before
        // the workers can publish anything live) so a subscriber asking
        // for history from seq 0 sees what the previous incarnation
        // finished.
        for (i, rec) in jobs.iter().enumerate() {
            let state = rec.state();
            if matches!(state, JobState::Done | JobState::Failed) {
                let id = i as u64;
                let payload = Payload::Done {
                    outcome: state.as_str().to_string(),
                    wall_us: wall_us.get(&id).copied().unwrap_or(0),
                    attempts: rec.entry.attempts,
                };
                plane.bus.publish(
                    Event::job_event(id, &rec.client, &rec.entry.name, payload).replayed(),
                );
            }
        }

        let engine = Arc::new(Engine::new(
            EngineConfig {
                workers: config.workers,
                dir: Some(dir.clone()),
                stem_width: 6,
                seed: config.seed,
                params: config.params.clone(),
                checkpoint_every: config.checkpoint_every,
                quarantine_cap: config.quarantine_cap,
                fixed_intake: false,
                paused: config.paused,
                stop: CancelToken::new(),
                halt_after_checkpoints: None,
                truncate_checkpoint: None,
            },
            executor,
            jobs,
            Arc::clone(&plane) as Arc<dyn Observer>,
        ));
        let pool = {
            let engine = Arc::clone(&engine);
            std::thread::Builder::new()
                .name("pp-service-pool".to_string())
                .spawn(move || engine.run_workers())
                .map_err(|e| PpError::io("service worker spawn", e))?
        };
        Ok(Service {
            config,
            engine,
            pool: Mutex::new(Some(pool)),
            plane,
            resolver,
            dir,
            journal: Mutex::new(journal),
            counters,
            hard_cancel,
        })
    }

    /// Submits one job. Returns its admission id, or a typed immediate
    /// rejection — this call never blocks on queue space.
    ///
    /// # Errors
    ///
    /// See [`AdmitError`].
    pub fn submit(&self, client: &str, name: &str, spec: &str) -> Result<u64, AdmitError> {
        let t0 = Instant::now();
        let result = self.submit_inner(client, name, spec);
        // Per-outcome admission-decision latency: every typed answer —
        // accept or refuse — gets its own histogram, so the cost of
        // saying "no" (which must stay cheap under overload) is
        // observable separately from the cost of saying "yes".
        let kind = match &result {
            Ok(_) => "admitted",
            Err(e) => e.kind(),
        };
        self.plane
            .observe(admit_hist_name(kind), t0.elapsed().as_micros() as u64);
        result
    }

    fn submit_inner(&self, client: &str, name: &str, spec: &str) -> Result<u64, AdmitError> {
        let c = &self.counters;
        // Resolve outside the lock: spec parsing/loading is the
        // expensive part and needs no shared state.
        let (program, run_config) = (self.resolver)(spec).map_err(|e| {
            c.rejected_bad_spec.fetch_add(1, Ordering::Relaxed);
            AdmitError::BadSpec(e)
        })?;
        let mut st = self.engine.lock();
        match st.phase {
            ServicePhase::Accepting => {}
            ServicePhase::Draining => {
                c.rejected_draining.fetch_add(1, Ordering::Relaxed);
                return Err(AdmitError::Draining);
            }
            ServicePhase::Stopped => {
                c.rejected_draining.fetch_add(1, Ordering::Relaxed);
                return Err(AdmitError::Stopped);
            }
        }
        let capacity = self.config.queue_capacity.max(1);
        if st.queue.len() >= capacity {
            c.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::Overloaded { capacity });
        }
        let quota = self.config.per_client_quota;
        if quota > 0 && st.active_by_client.get(client).copied().unwrap_or(0) >= quota {
            c.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::QuotaExceeded {
                client: client.to_string(),
                quota,
            });
        }
        let id = st.jobs.len() as u64;
        // Write-ahead: the admission is durable before it is
        // acknowledged; a crash right after this line re-runs the job.
        let line = journal_line(id, client, name, spec);
        let mut journal = self.journal.lock().expect("intake journal");
        append_journal(&mut journal, &line).map_err(|e| AdmitError::Io(e.to_string()))?;
        drop(journal);
        st.enqueue(JobRecord::new(
            client,
            Cow::Owned(JobSpec::new(name, program, run_config)),
            self.config.fault_plan.faults_for(id),
        ));
        c.admitted.fetch_add(1, Ordering::Relaxed);
        // Publish while still holding the state lock: a worker cannot
        // pop this job (and publish `started`) until the lock drops, so
        // bus order matches lifecycle order per job.
        let depth = st.queue.len() as u64;
        let bus = &self.plane.bus;
        bus.publish(Event::job_event(
            id,
            client,
            name,
            Payload::Admitted {
                spec: spec.to_string(),
            },
        ));
        bus.publish(Event::job_event(
            id,
            client,
            name,
            Payload::Queued { depth },
        ));
        drop(st);
        self.engine.wake_one();
        Ok(id)
    }

    /// Releases workers parked by [`ServiceConfig::paused`].
    pub fn unpause(&self) {
        self.engine.unpause();
    }

    /// A snapshot of one job, if it exists.
    pub fn status(&self, id: u64) -> Option<JobView> {
        let st = self.engine.lock();
        st.jobs.get(id as usize).map(|j| JobView::of(id, j))
    }

    /// Snapshots of every job, in admission order.
    pub fn jobs(&self) -> Vec<JobView> {
        let st = self.engine.lock();
        st.jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobView::of(i as u64, j))
            .collect()
    }

    /// Jobs in each state: `(queued, running, done, failed)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let st = self.engine.lock();
        let mut c = (0, 0, 0, 0);
        for j in &st.jobs {
            match j.state() {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done => c.2 += 1,
                JobState::Failed => c.3 += 1,
            }
        }
        c
    }

    /// The current shed/drain phase.
    pub fn phase(&self) -> ServicePhase {
        self.engine.lock().phase
    }

    /// Blocks until job `id` reaches a terminal state or `timeout`
    /// elapses; returns the latest view either way (`None` for an
    /// unknown id).
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobView> {
        let st = self.engine.wait_for(timeout, |st| {
            st.jobs
                .get(id as usize)
                .is_none_or(|j| matches!(j.state(), JobState::Done | JobState::Failed))
        });
        st.jobs.get(id as usize).map(|j| JobView::of(id, j))
    }

    /// Blocks until no jobs are queued or running, or `timeout`
    /// elapses. Returns whether the service went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let idle = |st: &State| st.queue.is_empty() && st.running == 0;
        idle(&self.engine.wait_for(timeout, idle))
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> ServiceMetrics {
        let c = &self.counters;
        let st = self.engine.lock();
        let e = st.counters;
        ServiceMetrics {
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected_overloaded: c.rejected_overloaded.load(Ordering::Relaxed),
            rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
            rejected_draining: c.rejected_draining.load(Ordering::Relaxed),
            rejected_bad_spec: c.rejected_bad_spec.load(Ordering::Relaxed),
            done: e.done,
            failed: e.failed,
            retries: e.retries,
            panics: e.panics,
            limit_stops: e.limit_stops,
            quarantined: e.quarantined,
            quarantine_pruned: e.quarantine_pruned,
            checkpoint_writes: e.checkpoint_writes,
            recovered_adopted: c.recovered_adopted.load(Ordering::Relaxed),
            recovered_requeued: c.recovered_requeued.load(Ordering::Relaxed),
            queued: st.queue.len() as u64,
            running: st.running as u64,
            jobs: st.jobs.len() as u64,
        }
    }

    /// Subscribes to the service event bus with a bounded queue of
    /// `capacity` frames (see
    /// [`DEFAULT_SUBSCRIBER_CAPACITY`](pp_obs::events::DEFAULT_SUBSCRIBER_CAPACITY)).
    /// A subscriber that falls behind loses its *oldest* events, exactly
    /// counted in each delivered frame's `dropped_since_last` — the
    /// daemon never blocks on a consumer.
    pub fn subscribe(&self, filter: EventFilter, capacity: usize) -> Subscription {
        self.plane.bus.subscribe(filter, capacity)
    }

    /// The service event bus (publication/drop totals, ad-hoc
    /// publication by the embedding daemon).
    pub fn events(&self) -> &EventBus {
        &self.plane.bus
    }

    /// Bumps a counter in the service's internal registry — the hook
    /// the transport layer uses so `transport.*` accounting rides along
    /// in [`Service::registry`] snapshots (`pp status --metrics/--prom`)
    /// without a registry of its own.
    pub fn obs_counter(&self, name: &'static str, delta: u64) {
        self.plane
            .hists
            .lock()
            .expect("service hists")
            .counter(name, delta);
    }

    /// Sets a gauge in the service's internal registry.
    pub fn obs_gauge(&self, name: &'static str, value: f64) {
        self.plane
            .hists
            .lock()
            .expect("service hists")
            .gauge(name, value);
    }

    /// Records a histogram sample in the service's internal registry.
    pub fn obs_observe(&self, name: &'static str, value: u64) {
        self.plane.observe(name, value);
    }

    /// The full observability registry: the [`ServiceMetrics`] counter
    /// and gauge set, the live timing histograms
    /// (`service.queue_wait_us`, `service.exec_wall_us`, per-outcome
    /// `service.admit.*_us`), transport accounting recorded via the
    /// `obs_*` hooks, and the event-bus accounting
    /// (`events.published`, `events.dropped`, `events.subscribers`).
    pub fn registry(&self) -> Registry {
        let mut reg = self.plane.hists.lock().expect("service hists").clone();
        self.metrics().record_metrics(&mut reg);
        let bus = &self.plane.bus;
        reg.counter("events.published", bus.published());
        reg.counter("events.dropped", bus.dropped_total());
        reg.gauge("events.subscribers", bus.subscriber_count() as f64);
        reg
    }

    /// Publishes one `metrics` frame carrying the current
    /// [`Service::registry`] snapshot; the daemon calls this on a
    /// timer so streaming subscribers get a periodic fleet pulse.
    pub fn publish_metrics_snapshot(&self) {
        let metrics =
            pp_obs::json::parse(&self.registry().to_json()).unwrap_or(Json::Obj(Vec::new()));
        self.plane
            .bus
            .publish(Event::service_event(Payload::MetricsSnapshot { metrics }));
    }

    fn publish_phase(&self, phase: &str) {
        self.plane
            .bus
            .publish(Event::service_event(Payload::StateChanged {
                phase: phase.to_string(),
            }));
    }

    /// Enters the draining phase: intake is refused, in-flight jobs
    /// finish, queued jobs stay pending (they will re-queue on the next
    /// start). Idempotent.
    pub fn drain(&self) {
        if self.engine.drain() {
            self.publish_phase("draining");
        }
    }

    /// Drains, joins the workers, writes the final checkpoint, and
    /// returns the final report. The graceful-shutdown path (SIGTERM).
    ///
    /// # Errors
    ///
    /// [`PpError::Io`] when the final checkpoint, or any artifact or
    /// checkpoint a worker wrote during the run, failed to persist.
    pub fn shutdown(&self) -> Result<ServiceReport, PpError> {
        let _span = pp_obs::span!("service.shutdown");
        self.drain();
        self.join_pool();
        let finished = self.engine.finish();
        self.publish_phase("stopped");
        finished?;
        let manifest = self.engine.manifest(&self.engine.lock());
        Ok(ServiceReport {
            manifest,
            metrics: self.metrics(),
        })
    }

    /// Abandons the service abruptly: workers stop without persisting
    /// their in-flight results, no final checkpoint is written, queued
    /// jobs are dropped on the floor. The library-level stand-in for
    /// `kill -9` — everything recovery needs is already on disk
    /// (journal + last checkpoint). Used by crash-recovery tests.
    pub fn halt_abandon(&self) {
        self.engine.halt();
        self.hard_cancel.cancel();
        self.join_pool();
    }

    fn join_pool(&self) {
        if let Some(pool) = self.pool.lock().expect("worker pool").take() {
            let _ = pool.join();
        }
    }

    /// The hard-cancel token wired into every worker's guest limits:
    /// cancelling it stops in-flight guest execution at the next limit
    /// check (the second-signal escalation path).
    pub fn hard_cancel_token(&self) -> CancelToken {
        self.hard_cancel.clone()
    }

    /// The directory this service checkpoints into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// One canonical-JSON journal line (newline-terminated) recording an
/// admission.
fn journal_line(id: u64, client: &str, name: &str, spec: &str) -> String {
    let mut line = Json::Obj(vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("client".to_string(), Json::Str(client.to_string())),
        ("name".to_string(), Json::Str(name.to_string())),
        ("spec".to_string(), Json::Str(spec.to_string())),
    ])
    .render();
    line.push('\n');
    line
}

/// Appends and fsyncs one journal line; the line is durable when this
/// returns. The one write path of both journals.
fn append_journal(journal: &mut File, line: &str) -> std::io::Result<()> {
    journal.write_all(line.as_bytes())?;
    journal.sync_data()
}

/// The `service.admit.*_us` histogram for one admission outcome.
fn admit_hist_name(kind: &str) -> &'static str {
    match kind {
        "admitted" => "service.admit.admitted_us",
        "overloaded" => "service.admit.overloaded_us",
        "quota-exceeded" => "service.admit.quota_us",
        "draining" => "service.admit.draining_us",
        "stopped" => "service.admit.stopped_us",
        "bad-spec" => "service.admit.bad_spec_us",
        _ => "service.admit.io_us",
    }
}

/// One canonical-JSON terminal-event journal line (newline-terminated).
fn event_journal_line(id: u64, rec: &JobRecord<'_>, outcome: &str, wall_us: u64) -> String {
    let mut line = Json::Obj(vec![
        ("job".to_string(), Json::Num(id as f64)),
        ("client".to_string(), Json::Str(rec.client.clone())),
        ("name".to_string(), Json::Str(rec.entry.name.clone())),
        ("outcome".to_string(), Json::Str(outcome.to_string())),
        ("wall_us".to_string(), Json::Num(wall_us as f64)),
        (
            "attempts".to_string(),
            Json::Num(f64::from(rec.entry.attempts)),
        ),
    ])
    .render();
    line.push('\n');
    line
}

/// What [`replay_journal`] does with a complete line that does not
/// parse, or that the replay callback rejects.
#[derive(Clone, Copy)]
enum OnCorrupt {
    /// The journal is the source of truth: fail with the error (the
    /// intake journal).
    Fail,
    /// The journal is telemetry: drop that line and everything after it
    /// (the terminal-event journal).
    Truncate,
}

/// Opens (creating if absent) the JSONL journal at `path` and feeds each
/// complete line, with its 0-based index, to `each`. A final line
/// without a newline is a torn append — the process died before the
/// fsync, so it was never acknowledged — and is dropped. The file is
/// truncated to the replayed prefix and returned positioned for
/// [`append_journal`].
fn replay_journal(
    path: &Path,
    on_corrupt: OnCorrupt,
    mut each: impl FnMut(usize, &Json) -> Result<(), PpError>,
) -> Result<File, PpError> {
    let io = |e| PpError::io(path.display().to_string(), e);
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(path)
        .map_err(io)?;
    let mut text = String::new();
    file.read_to_string(&mut text).map_err(io)?;
    let mut good = 0;
    for (n, line) in text.split_inclusive('\n').enumerate() {
        if !line.ends_with('\n') {
            pp_obs::warn!(
                "{}: dropping torn tail ({} bytes)",
                path.display(),
                line.len()
            );
            break;
        }
        let replayed = pp_obs::json::parse(line.trim())
            .map_err(|e| {
                PpError::Corrupt(SerializeError::Format(format!(
                    "{} line {n}: {e}",
                    path.display()
                )))
            })
            .and_then(|json| each(n, &json));
        match (replayed, on_corrupt) {
            (Ok(()), _) => good += line.len(),
            (Err(e), OnCorrupt::Fail) => return Err(e),
            (Err(e), OnCorrupt::Truncate) => {
                pp_obs::warn!("{}: dropping corrupt tail: {e}", path.display());
                break;
            }
        }
    }
    if good != text.len() {
        file.set_len(good as u64)
            .and_then(|()| file.sync_data())
            .map_err(io)?;
    }
    file.seek(SeekFrom::End(0)).map_err(io)?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_lines_round_trip() {
        let line = journal_line(7, "ci", "job-a", "target=loops scale=0.1");
        assert!(line.ends_with('\n'));
        let v = pp_obs::json::parse(line.trim()).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.get("client").and_then(Json::as_str), Some("ci"));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("job-a"));
        assert_eq!(
            v.get("spec").and_then(Json::as_str),
            Some("target=loops scale=0.1")
        );
    }

    /// Replays `text` as a journal under `on_corrupt`; returns the
    /// replayed line indices, or the error, and the bytes left on disk.
    fn replay(
        tag: &str,
        text: &str,
        on_corrupt: OnCorrupt,
    ) -> (Result<Vec<usize>, String>, String) {
        let path = std::env::temp_dir().join(format!("pp-journal-{tag}-{}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let mut seen = Vec::new();
        let result = replay_journal(&path, on_corrupt, |n, line| {
            line.get("id")
                .ok_or_else(|| PpError::Usage("lacks id".to_string()))?;
            seen.push(n);
            Ok(())
        })
        .map(|_| seen)
        .map_err(|e| e.to_string());
        let left = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (result, left)
    }

    #[test]
    fn journals_drop_a_torn_tail_under_both_policies() {
        let clean = "{\"id\":0}\n{\"id\":1}\n";
        for (tag, policy) in [
            ("torn-fail", OnCorrupt::Fail),
            ("torn-trunc", OnCorrupt::Truncate),
        ] {
            let (result, left) = replay(tag, &format!("{clean}{{\"id\":2"), policy);
            assert_eq!(result, Ok(vec![0, 1]), "{tag}");
            assert_eq!(left, clean, "{tag}: the torn tail is truncated away");
        }
    }

    #[test]
    fn a_corrupt_middle_line_fails_intake_and_truncates_events() {
        let text = "{\"id\":0}\nnot json\n{\"id\":2}\n{\"x\":3}\n";
        let (result, left) = replay("mid-fail", text, OnCorrupt::Fail);
        assert!(result.unwrap_err().contains("line 1"));
        assert_eq!(left, text, "a refused journal is left as found");
        let (result, left) = replay("mid-trunc", text, OnCorrupt::Truncate);
        assert_eq!(result, Ok(vec![0]));
        assert_eq!(
            left, "{\"id\":0}\n",
            "everything from the corrupt line is dropped"
        );
        // A line the callback rejects counts as corrupt too.
        let text = "{\"id\":0}\n{\"x\":1}\n";
        assert!(replay("cb-fail", text, OnCorrupt::Fail).0.is_err());
        assert_eq!(replay("cb-trunc", text, OnCorrupt::Truncate).0, Ok(vec![0]));
    }

    #[test]
    fn fault_plan_hits_every_nth_job() {
        let plan = ServiceFaultPlan {
            panic_every: 3,
            transient_every: 0,
            corrupt_every: 5,
        };
        assert_eq!(plan.faults_for(0).panic_attempts, 0);
        assert_eq!(plan.faults_for(2).panic_attempts, 1, "job 2 is the 3rd");
        assert_eq!(plan.faults_for(5).panic_attempts, 1);
        assert_eq!(plan.faults_for(4).corrupt_attempts, 1, "job 4 is the 5th");
        assert_eq!(plan.faults_for(4).transient_attempts, 0);
    }

    #[test]
    fn admit_errors_have_wire_kinds() {
        assert_eq!(AdmitError::Overloaded { capacity: 4 }.kind(), "overloaded");
        assert_eq!(
            AdmitError::QuotaExceeded {
                client: "c".into(),
                quota: 1
            }
            .kind(),
            "quota-exceeded"
        );
        assert_eq!(AdmitError::Draining.kind(), "draining");
        assert_eq!(AdmitError::BadSpec("x".into()).kind(), "bad-spec");
    }
}
