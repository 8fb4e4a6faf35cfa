//! The one job engine behind `pp batch` and `pp serve`.
//!
//! [`Supervisor::run`](crate::Supervisor::run) and
//! [`Service`](crate::Service) are two front ends over this module. The
//! engine owns the job table and queue, a pool of worker threads running
//! the [`JobExecutor`], the one fold of each [`JobExecution`] into the
//! table (counters, quarantine, artifacts, periodic checkpoint), and the
//! one rule for adopting a prior manifest ([`adopt_manifest`]). Batch
//! queues a fixed job list up front and runs until the queue is empty;
//! the service adds admission, an intake journal and the event bus.
//!
//! Stopping comes in two kinds. *Drain* (the `Draining` phase, or a
//! cancelled stop token) stops scheduling, lets in-flight jobs finish,
//! and leaves a final manifest with the rest pending. *Halt* is the
//! simulated `kill -9`: in-flight results are abandoned and nothing more
//! is written.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::panic;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

use pp_usim::CancelToken;

use crate::error::PpError;
use crate::supervisor::manifest::{self, BatchManifest, JobEntry, JobStatus, ProfileRef};
use crate::supervisor::{
    ExecEvent, ExecOutcome, JobExecution, JobExecutor, JobFaults, JobSpec, QuarantinedAttempt,
    RetryStep,
};

/// Name prefix of worker threads (the panic hook suppresses the default
/// backtrace spew for injected/caught worker panics).
const WORKER_THREAD_PREFIX: &str = "pp-batch-worker";

/// Where the engine is in its shed/drain state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServicePhase {
    /// Accepting submissions.
    Accepting,
    /// Refusing intake; in-flight jobs finishing; queued jobs held.
    Draining,
    /// Workers joined, final checkpoint written.
    Stopped,
}

/// A job's lifecycle state as reported to clients.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; artifacts persisted and verified.
    Done,
    /// Exhausted retries or failed permanently.
    Failed,
}

impl JobState {
    /// Wire tag for the status protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// One job in the engine's table. Batch borrows its caller's specs;
/// the service owns the ones it admits.
pub(crate) struct JobRecord<'a> {
    /// The submitting client ("" for batch jobs).
    pub client: String,
    pub spec: Cow<'a, JobSpec>,
    pub faults: JobFaults,
    /// The job's manifest row; pending until the fold makes it terminal.
    pub entry: JobEntry,
    /// A worker is executing it.
    pub running: bool,
    /// The classified retries of this run of the job.
    pub retries: Vec<RetryStep>,
    pub admitted_at: Instant,
    pub started_at: Option<Instant>,
}

impl<'a> JobRecord<'a> {
    /// A pending job.
    pub fn new(client: &str, spec: Cow<'a, JobSpec>, faults: JobFaults) -> JobRecord<'a> {
        JobRecord {
            client: client.to_string(),
            entry: JobEntry::pending(&spec.name),
            spec,
            faults,
            running: false,
            retries: Vec::new(),
            admitted_at: Instant::now(),
            started_at: None,
        }
    }

    pub fn state(&self) -> JobState {
        match self.entry.status {
            JobStatus::Done => JobState::Done,
            JobStatus::Failed => JobState::Failed,
            JobStatus::Pending if self.running => JobState::Running,
            JobStatus::Pending => JobState::Queued,
        }
    }
}

/// What the fold has counted since the engine started.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub done: u64,
    pub failed: u64,
    pub retries: u64,
    pub panics: u64,
    pub limit_stops: u64,
    pub quarantined: u64,
    pub quarantine_pruned: u64,
    pub checkpoint_writes: u64,
}

/// The engine's mutable state, guarded by one mutex.
pub(crate) struct State<'a> {
    pub phase: ServicePhase,
    pub paused: bool,
    pub halted: bool,
    pub jobs: Vec<JobRecord<'a>>,
    pub queue: VecDeque<u64>,
    pub running: usize,
    /// Queued plus running jobs per client.
    pub active_by_client: HashMap<String, usize>,
    pub counters: Counters,
    since_checkpoint: u32,
    /// The first I/O error of the run; surfaced when the engine
    /// finishes (workers cannot return a `Result`).
    io_error: Option<PpError>,
}

impl<'a> State<'a> {
    /// Appends `rec` to the table and the queue; returns its id.
    pub fn enqueue(&mut self, rec: JobRecord<'a>) -> u64 {
        let id = self.jobs.len() as u64;
        *self.active_by_client.entry(rec.client.clone()).or_insert(0) += 1;
        self.jobs.push(rec);
        self.queue.push_back(id);
        id
    }

    fn fail(&mut self, e: PpError) {
        pp_obs::warn!("{e}");
        self.io_error.get_or_insert(e);
    }
}

/// Hooks a front end hangs on job transitions (the service's event bus).
pub(crate) trait Observer: Send + Sync {
    /// A worker picked job `id` up; called under the state lock.
    fn started(&self, _id: u64, _rec: &JobRecord<'_>, _worker: u64) {}
    /// A retry or quarantine inside a running job; no lock held.
    fn exec_event(&self, _id: u64, _client: &str, _name: &str, _ev: ExecEvent) {}
    /// Job `id` reached `Done` or `Failed`; called under the state lock.
    fn finished(&self, _id: u64, _rec: &JobRecord<'_>) {}
}

impl Observer for () {}

pub(crate) struct EngineConfig {
    pub workers: usize,
    /// Where manifests, artifacts and quarantines go. Without one,
    /// nothing persists and no profile is serialized.
    pub dir: Option<PathBuf>,
    /// Digits of the job index in artifact names (`job-001.cct`).
    pub stem_width: usize,
    pub seed: u64,
    pub params: String,
    pub checkpoint_every: u32,
    pub quarantine_cap: usize,
    /// Workers exit once the queue is empty (batch); otherwise they wait
    /// for more intake until drained.
    pub fixed_intake: bool,
    pub paused: bool,
    /// Cancelling it drains the engine; async-signal-safe.
    pub stop: CancelToken,
    /// Halt right after this many checkpoint writes (fault injection).
    pub halt_after_checkpoints: Option<u32>,
    /// Truncate the manifest to `.1` bytes after checkpoint write `.0`
    /// (fault injection).
    pub truncate_checkpoint: Option<(u32, u64)>,
}

pub(crate) struct Engine<'a> {
    config: EngineConfig,
    executor: JobExecutor,
    observer: Arc<dyn Observer>,
    state: Mutex<State<'a>>,
    /// Workers park here waiting for queue work (or phase changes).
    wake: Condvar,
    /// Waiters park here for job transitions.
    done: Condvar,
}

impl<'a> Engine<'a> {
    /// An engine over `jobs`, with every pending one queued.
    pub fn new(
        config: EngineConfig,
        executor: JobExecutor,
        jobs: Vec<JobRecord<'a>>,
        observer: Arc<dyn Observer>,
    ) -> Engine<'a> {
        let mut state = State {
            phase: ServicePhase::Accepting,
            paused: config.paused,
            halted: false,
            jobs: Vec::with_capacity(jobs.len()),
            queue: VecDeque::new(),
            running: 0,
            active_by_client: HashMap::new(),
            counters: Counters::default(),
            since_checkpoint: 0,
            io_error: None,
        };
        for rec in jobs {
            if rec.entry.status == JobStatus::Pending {
                state.enqueue(rec);
            } else {
                state.jobs.push(rec);
            }
        }
        Engine {
            config,
            executor,
            observer,
            state: Mutex::new(state),
            wake: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Runs the worker pool until every worker has exited: drained,
    /// halted, or (with a fixed intake) out of work.
    pub fn run_workers(&self) {
        suppress_worker_panic_output();
        std::thread::scope(|scope| {
            for w in 0..self.config.workers.max(1) {
                std::thread::Builder::new()
                    .name(format!("{WORKER_THREAD_PREFIX}-{w}"))
                    .spawn_scoped(scope, move || self.worker_loop(w as u64))
                    .expect("worker thread spawns");
            }
        });
    }

    pub fn lock(&self) -> MutexGuard<'_, State<'a>> {
        self.state.lock().expect("engine state")
    }

    /// Wakes one parked worker (new work was queued).
    pub fn wake_one(&self) {
        self.wake.notify_one();
    }

    /// Blocks until `ready` holds or `timeout` elapses; returns the
    /// state either way.
    pub fn wait_for(
        &self,
        timeout: Duration,
        mut ready: impl FnMut(&State<'a>) -> bool,
    ) -> MutexGuard<'_, State<'a>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            let now = Instant::now();
            if ready(&st) || now >= deadline {
                return st;
            }
            st = self
                .done
                .wait_timeout(st, deadline - now)
                .expect("engine state")
                .0;
        }
    }

    /// Releases workers parked by [`EngineConfig::paused`].
    pub fn unpause(&self) {
        self.lock().paused = false;
        self.wake.notify_all();
    }

    /// Stops scheduling: in-flight jobs finish, queued jobs stay
    /// pending. Returns whether this call left the `Accepting` phase.
    pub fn drain(&self) -> bool {
        let mut st = self.lock();
        let changed = st.phase == ServicePhase::Accepting;
        if changed {
            st.phase = ServicePhase::Draining;
        }
        drop(st);
        self.wake.notify_all();
        self.done.notify_all();
        changed
    }

    /// The simulated `kill -9`: workers stop without folding their
    /// in-flight results, and no final manifest is written.
    pub fn halt(&self) {
        self.halt_locked(&mut self.lock());
    }

    fn halt_locked(&self, st: &mut State<'a>) {
        st.halted = true;
        st.phase = ServicePhase::Stopped;
        self.wake.notify_all();
        self.done.notify_all();
    }

    /// Once the workers have exited, writes the final manifest unless
    /// halted.
    ///
    /// # Errors
    ///
    /// The first I/O error of the run (artifact, quarantine or
    /// checkpoint write).
    pub fn finish(&self) -> Result<(), PpError> {
        let mut st = self.lock();
        if !st.halted {
            self.checkpoint(&mut st);
        }
        st.phase = ServicePhase::Stopped;
        st.io_error.take().map_or(Ok(()), Err)
    }

    /// The manifest of the current table.
    pub fn manifest(&self, st: &State<'a>) -> BatchManifest {
        BatchManifest {
            seed: self.config.seed,
            params: self.config.params.clone(),
            jobs: st.jobs.iter().map(|r| r.entry.clone()).collect(),
        }
    }

    /// One worker: pop → execute → fold, until drained, halted, or (with
    /// a fixed intake) the queue is empty.
    fn worker_loop(&self, worker: u64) {
        loop {
            let (id, spec, faults, client) = {
                let mut st = self.lock();
                loop {
                    if st.halted
                        || st.phase != ServicePhase::Accepting
                        || self.config.stop.is_cancelled()
                    {
                        return;
                    }
                    if !st.paused {
                        if let Some(id) = st.queue.pop_front() {
                            st.running += 1;
                            let rec = &mut st.jobs[id as usize];
                            rec.running = true;
                            rec.started_at = Some(Instant::now());
                            self.observer.started(id, rec, worker);
                            break (id, rec.spec.clone(), rec.faults, rec.client.clone());
                        }
                        if self.config.fixed_intake {
                            return;
                        }
                    }
                    st = self.wake.wait(st).expect("engine state");
                }
            };
            let execution = self.executor.execute_observed(
                id,
                &spec,
                faults,
                self.config.dir.is_some(),
                &mut |ev| self.observer.exec_event(id, &client, &spec.name, ev),
            );
            self.fold(id, execution);
        }
    }

    /// Folds one finished execution into the table: counters,
    /// quarantine, artifacts, the job's row, and every N-th fold a
    /// checkpoint. An artifact that fails to persist leaves the row
    /// pending (the next start re-runs the job) and the error surfaces
    /// from [`Engine::finish`].
    fn fold(&self, id: u64, exec: JobExecution) {
        let stem = format!("job-{id:0w$}", w = self.config.stem_width);
        // Artifacts are written outside the lock: every job owns its
        // files, and a halted engine's strays are rewritten
        // byte-identically when the job re-runs.
        let refs = match (&exec.outcome, &self.config.dir) {
            (ExecOutcome::Done { flow, cct }, Some(dir)) => persist(dir, &stem, "flow", flow)
                .and_then(|f| Ok((f, persist(dir, &stem, "cct", cct)?))),
            _ => Ok((None, None)),
        };
        let mut guard = self.lock();
        if guard.halted {
            return;
        }
        let st = &mut *guard;
        let c = &mut st.counters;
        c.retries += u64::from(exec.retries);
        c.panics += u64::from(exec.panics);
        c.limit_stops += u64::from(exec.limit_stops);
        c.quarantined += exec.quarantines.len() as u64;
        if let (Some(dir), false) = (&self.config.dir, exec.quarantines.is_empty()) {
            // Under the lock: rotation lists and removes other jobs'
            // attempt-sets.
            match self.quarantine(dir, &stem, &exec.quarantines) {
                Ok(pruned) => c.quarantine_pruned += pruned,
                Err(e) => st.fail(e),
            }
        }
        st.running -= 1;
        let rec = &mut st.jobs[id as usize];
        rec.running = false;
        rec.retries = exec.retry_schedule;
        if let Some(n) = st.active_by_client.get_mut(&rec.client) {
            *n = n.saturating_sub(1);
        }
        let entry = &mut rec.entry;
        match (exec.outcome, refs) {
            (_, Err(e)) => st.fail(e),
            (outcome, Ok((flow, cct))) => {
                entry.attempts = exec.attempts;
                entry.cycles = exec.cycles;
                entry.uops = exec.uops;
                if let ExecOutcome::Failed(f) = outcome {
                    entry.status = JobStatus::Failed;
                    entry.detail = f.to_string();
                    pp_obs::warn!(
                        "job {id} ({}) failed after {} attempts: {}",
                        entry.name,
                        entry.attempts,
                        entry.detail
                    );
                    st.counters.failed += 1;
                } else {
                    entry.status = JobStatus::Done;
                    entry.detail.clear();
                    (entry.flow, entry.cct) = (flow, cct);
                    st.counters.done += 1;
                }
                self.observer.finished(id, rec);
            }
        }
        st.since_checkpoint += 1;
        if self.config.dir.is_some() && st.since_checkpoint >= self.config.checkpoint_every.max(1) {
            st.since_checkpoint = 0;
            self.checkpoint(st);
            if self
                .config
                .halt_after_checkpoints
                .is_some_and(|n| st.counters.checkpoint_writes >= u64::from(n))
            {
                self.halt_locked(st);
            }
        }
        drop(guard);
        self.done.notify_all();
    }

    /// Writes one job's quarantined attempt-sets under
    /// `<dir>/quarantine/` (stems `<stem>-attempt-<n>`), then rotates the
    /// directory down to the cap. Returns the attempt-sets evicted.
    fn quarantine(
        &self,
        dir: &Path,
        stem: &str,
        quarantines: &[QuarantinedAttempt],
    ) -> Result<u64, PpError> {
        let qdir = dir.join("quarantine");
        let io = |e| PpError::io("quarantine", e);
        std::fs::create_dir_all(&qdir).map_err(io)?;
        for q in quarantines {
            let stem = format!("{stem}-attempt-{}", q.attempt);
            let files = [
                ("flow", q.flow.as_deref()),
                ("cct", q.cct.as_deref()),
                ("report.txt", Some(q.report.as_bytes())),
            ];
            for (ext, bytes) in files {
                if let Some(bytes) = bytes {
                    manifest::write_atomic(&qdir.join(format!("{stem}.{ext}")), bytes)
                        .map_err(io)?;
                }
            }
        }
        manifest::prune_quarantine(&qdir, self.config.quarantine_cap)
            .map_err(|e| PpError::io("quarantine rotation", e))
    }

    /// Writes the manifest of the current table, periodic or final (and
    /// applies the torn-write injection when the config says so).
    fn checkpoint(&self, st: &mut State<'a>) {
        let Some(dir) = &self.config.dir else {
            return;
        };
        let _span = pp_obs::span!("batch.checkpoint");
        let written = self.manifest(st).save_atomic(dir).map_err(PpError::from);
        let result = written.and_then(|()| {
            st.counters.checkpoint_writes += 1;
            match self.config.truncate_checkpoint {
                Some((w, keep)) if st.counters.checkpoint_writes == u64::from(w) => {
                    manifest::truncate_manifest(dir, keep)
                        .map_err(|e| PpError::io("checkpoint truncation injection", e))
                }
                _ => Ok(()),
            }
        });
        if let Err(e) = result {
            st.fail(e);
        }
    }
}

/// Atomically writes one artifact of a finished job (when present) and
/// returns its manifest ref.
fn persist(
    dir: &Path,
    stem: &str,
    ext: &str,
    bytes: &Option<Vec<u8>>,
) -> Result<Option<ProfileRef>, PpError> {
    let Some(bytes) = bytes else {
        return Ok(None);
    };
    let file = format!("{stem}.{ext}");
    manifest::write_atomic(&dir.join(&file), bytes)
        .map_err(|e| PpError::io(format!("artifact {file}"), e))?;
    Ok(Some(ProfileRef::for_bytes(file, bytes)))
}

/// Adopts the terminal rows of the manifest in `dir` into `jobs`: the
/// one resume rule of `pp batch --resume` and of service recovery. The
/// manifest must come from the same campaign (seed and params) and list
/// a prefix of `jobs` by name. `Failed` rows are adopted; `Done` rows
/// only when every artifact ref still validates; everything else
/// re-runs. Returns the number of rows adopted.
///
/// # Errors
///
/// [`PpError::Usage`] for a foreign campaign or job list;
/// [`PpError::Corrupt`] for a torn or altered manifest; [`PpError::Io`]
/// when it cannot be read.
pub(crate) fn adopt_manifest(
    dir: &Path,
    seed: u64,
    params: &str,
    jobs: &mut [JobRecord<'_>],
) -> Result<u64, PpError> {
    let prior = BatchManifest::load(dir)?;
    if prior.seed != seed || prior.params != params {
        return Err(PpError::Usage(format!(
            "checkpoint was written by a different campaign \
             (stored seed {} params \"{}\", live seed {seed} params \"{params}\")",
            prior.seed, prior.params
        )));
    }
    if prior.jobs.len() > jobs.len()
        || prior
            .jobs
            .iter()
            .zip(jobs.iter())
            .any(|(e, r)| e.name != r.entry.name)
    {
        return Err(PpError::Usage(
            "checkpoint job list does not match the live job list".to_string(),
        ));
    }
    let mut adopted = 0;
    for (old, rec) in prior.jobs.into_iter().zip(jobs) {
        let adopt = match old.status {
            JobStatus::Pending => false,
            JobStatus::Failed => true,
            JobStatus::Done => {
                let ok = old
                    .flow
                    .iter()
                    .chain(old.cct.iter())
                    .all(|r| r.validates(dir));
                if !ok {
                    pp_obs::warn!(
                        "checkpoint: job {} artifact bytes do not validate; re-running",
                        old.name
                    );
                }
                ok
            }
        };
        if adopt {
            rec.entry = old;
            adopted += 1;
        }
    }
    Ok(adopted)
}

/// Wraps the global panic hook (once) so caught panics on worker
/// threads don't spew the default message/backtrace to stderr — they
/// surface as typed [`JobFailure`](crate::JobFailure)s instead. Panics
/// on every other thread keep the previous hook's behavior.
fn suppress_worker_panic_output() {
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
