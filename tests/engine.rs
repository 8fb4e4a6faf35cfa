//! One job engine behind `pp batch` and `pp serve`: the same job list
//! through a checkpointed [`Supervisor::run`] and through a [`Service`]
//! must persist the same bytes, and both front ends must refuse to
//! record a job `Done` when its artifact cannot be written.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pp::ir::{HwEvent, Program};
use pp::profiler::{
    BatchFaultPlan, BatchManifest, JobEntry, JobSpec, JobState, JobStatus, Profiler, RunConfig,
    Service, ServiceConfig, ServiceFaultPlan, SpecResolver, Supervisor,
};

const CONFIG: RunConfig = RunConfig::CombinedHw {
    events: (HwEvent::Insts, HwEvent::DcMiss),
};
const SEED: u64 = 5;
const PARAMS: &str = "engine-test";
const JOBS: usize = 4;

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pp-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The first `n` suite workloads at a tiny scale.
fn programs(n: usize) -> Vec<(String, Program)> {
    pp::workloads::suite(0.02)
        .into_iter()
        .take(n)
        .map(|w| (w.name, w.program))
        .collect()
}

fn supervisor() -> Supervisor {
    Supervisor::new(Profiler::default())
        .with_workers(2)
        .with_seed(SEED)
        .with_params(PARAMS)
        .with_backoff_ms(0, 0)
}

/// A service whose job specs are indices into `programs`.
fn start_service(dir: &Path, programs: &[(String, Program)], faults: ServiceFaultPlan) -> Service {
    let table: Vec<Program> = programs.iter().map(|(_, p)| p.clone()).collect();
    let resolver: SpecResolver = Arc::new(move |spec: &str| {
        let k: usize = spec.parse().map_err(|_| format!("bad index {spec}"))?;
        Ok((table.get(k).ok_or("no such program")?.clone(), CONFIG))
    });
    let config = ServiceConfig {
        workers: 2,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        seed: SEED,
        params: PARAMS.to_string(),
        fault_plan: faults,
        ..ServiceConfig::default()
    };
    Service::start(config, Profiler::default(), resolver, dir).expect("service starts")
}

/// A manifest row with its artifact refs reduced to length and
/// fingerprint: everything but the file names.
fn row_without_names(e: &JobEntry) -> (JobEntry, Vec<(u64, u32)>) {
    let refs = e
        .flow
        .iter()
        .chain(e.cct.iter())
        .map(|r| (r.len, r.crc))
        .collect();
    let mut row = e.clone();
    (row.flow, row.cct) = (None, None);
    (row, refs)
}

#[test]
fn batch_and_serve_persist_the_same_bytes() {
    let programs = programs(JOBS);
    let jobs: Vec<JobSpec> = programs
        .iter()
        .map(|(name, p)| JobSpec::new(name.clone(), p.clone(), CONFIG))
        .collect();
    // The same transient fault in both: the last job's first attempt.
    let batch_dir = scratch("same-batch");
    let report = supervisor()
        .with_checkpoint_dir(&batch_dir)
        .with_fault_plan(BatchFaultPlan::default().transient_on_job(JOBS - 1, 1))
        .run(&jobs, false)
        .expect("batch runs");
    assert!(report.manifest.is_complete());

    let serve_dir = scratch("same-serve");
    let service = start_service(
        &serve_dir,
        &programs,
        ServiceFaultPlan {
            transient_every: JOBS as u64,
            ..ServiceFaultPlan::default()
        },
    );
    for (k, (name, _)) in programs.iter().enumerate() {
        service.submit("c", name, &k.to_string()).expect("admitted");
    }
    assert!(service.wait_idle(Duration::from_secs(120)));
    let served = service.shutdown().expect("clean shutdown");

    let batch = BatchManifest::load(&batch_dir).expect("batch manifest");
    let serve = BatchManifest::load(&serve_dir).expect("service manifest");
    assert_eq!(batch, report.manifest);
    assert_eq!(serve, served.manifest);
    assert_eq!((batch.seed, &batch.params), (serve.seed, &serve.params));
    assert_eq!(batch.jobs.len(), JOBS);
    assert_eq!(batch.jobs[JOBS - 1].attempts, 2, "the fault was retried");
    for (i, (b, s)) in batch.jobs.iter().zip(&serve.jobs).enumerate() {
        assert_eq!(b.status, JobStatus::Done);
        assert_eq!(row_without_names(b), row_without_names(s), "row {i}");
        let batch_cct = std::fs::read(batch_dir.join(format!("job-{i:03}.cct"))).expect("batch");
        let serve_cct = std::fs::read(serve_dir.join(format!("job-{i:06}.cct"))).expect("serve");
        assert_eq!(batch_cct, serve_cct, "job {i} artifact bytes");
    }
    std::fs::remove_dir_all(&batch_dir).ok();
    std::fs::remove_dir_all(&serve_dir).ok();
}

#[test]
fn batch_never_records_done_without_its_artifact() {
    let programs = programs(2);
    let jobs: Vec<JobSpec> = programs
        .iter()
        .map(|(name, p)| JobSpec::new(name.clone(), p.clone(), CONFIG))
        .collect();
    let dir = scratch("batch-blocked");
    // A directory where job 0's profile must go: its write fails.
    std::fs::create_dir_all(dir.join("job-000.cct")).expect("blocker");
    let err = supervisor()
        .with_workers(1)
        .with_checkpoint_dir(&dir)
        .run(&jobs, false)
        .expect_err("the failed artifact write surfaces");
    assert_eq!(err.exit_code(), 3, "{err}");
    let manifest = BatchManifest::load(&dir).expect("the final manifest is written");
    assert_eq!(manifest.jobs[0].status, JobStatus::Pending);
    assert!(manifest.jobs[0].cct.is_none());
    assert_eq!(manifest.jobs[1].status, JobStatus::Done);

    // With the obstacle gone, resume re-runs exactly the pending job.
    std::fs::remove_dir(dir.join("job-000.cct")).expect("unblock");
    let report = supervisor()
        .with_checkpoint_dir(&dir)
        .run(&jobs, true)
        .expect("resume");
    assert!(report.manifest.is_complete());
    assert_eq!(report.resumed_skips, 1);
    let cct = report.manifest.jobs[0].cct.as_ref().expect("artifact ref");
    assert!(cct.validates(&dir));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_never_records_done_without_its_artifact() {
    let programs = programs(1);
    let dir = scratch("serve-blocked");
    std::fs::create_dir_all(dir.join("job-000000.cct")).expect("blocker");
    let service = start_service(&dir, &programs, ServiceFaultPlan::default());
    service.submit("c", &programs[0].0, "0").expect("admitted");
    assert!(service.wait_idle(Duration::from_secs(60)));
    let view = service.status(0).expect("job 0");
    assert_eq!(view.state, JobState::Queued, "the job stays pending");
    assert!(view.cct.is_none());
    assert_eq!(service.metrics().done, 0);
    let err = service
        .shutdown()
        .expect_err("the failed artifact write surfaces");
    assert_eq!(err.exit_code(), 3, "{err}");

    // The restart re-runs the job rather than adopting an empty row.
    std::fs::remove_dir(dir.join("job-000000.cct")).expect("unblock");
    let service = start_service(&dir, &programs, ServiceFaultPlan::default());
    let m = service.metrics();
    assert_eq!((m.recovered_adopted, m.recovered_requeued), (0, 1));
    assert!(service.wait_idle(Duration::from_secs(60)));
    let report = service.shutdown().expect("clean shutdown");
    let entry = &report.manifest.jobs[0];
    assert_eq!(entry.status, JobStatus::Done);
    assert!(entry.cct.as_ref().expect("artifact ref").validates(&dir));
    std::fs::remove_dir_all(&dir).ok();
}
