#![warn(missing_docs)]

//! # pp-core — the PP profiler
//!
//! The top of the reproduction stack: this crate is the analog of the
//! paper's PP tool as its *user* sees it. Give it a `pp-ir` program and a
//! [`RunConfig`], and it
//!
//! 1. instruments the program (`pp-instrument`),
//! 2. executes it on the simulated UltraSPARC (`pp-usim`) with a profiling
//!    sink that maintains the flow counter tables and the calling context
//!    tree (`pp-cct`) exactly, and
//! 3. returns a [`RunReport`] with the machine's ground-truth metrics plus
//!    the collected profile.
//!
//! On top of the reports sit the paper's analyses:
//!
//! * [`analysis::hot_paths`] — Table 4's hot/cold/dense/sparse path
//!   classification,
//! * [`analysis::hot_procedures`] — Table 5's per-procedure view,
//! * [`analysis::block_path_multiplicity`] — the Section 6.4.3 statistic
//!   (blocks on hot paths execute on ~16 different paths),
//! * [`pp_cct::CctStats`] — Table 3's CCT statistics,
//! * [`experiment`] — harnesses that regenerate each of the paper's
//!   tables from a set of benchmark programs.
//!
//! ```no_run
//! use pp_core::{Profiler, RunConfig};
//! use pp_ir::HwEvent;
//! # fn program() -> pp_ir::Program { unimplemented!() }
//!
//! let program = program();
//! let profiler = Profiler::new(Default::default());
//! let report = profiler
//!     .run(&program, RunConfig::FlowHw { events: (HwEvent::Insts, HwEvent::DcMiss) })
//!     .unwrap();
//! let flow = report.flow.as_ref().unwrap();
//! for (proc, sum, cell) in flow.iter_paths().take(10) {
//!     println!("{proc} path {sum}: {} times, {} misses", cell.freq, cell.m1);
//! }
//! ```

pub mod analysis;
pub mod annotate;
pub mod chaos;
mod engine;
pub mod error;
pub mod experiment;
pub mod integrity;
pub mod merge;
pub mod observe;
pub mod profile;
pub mod profiler;
pub mod report;
pub mod server;
pub mod service;
mod sink_impl;
pub mod supervisor;
pub mod transport;

/// splitmix64, the one deterministic mixer behind pp-core's jittered
/// backoffs (the supervisor's retry schedule and the transport client's
/// reconnects) and the same generator the workloads crate streams from.
/// Retry schedules are thereby a closed-form function of (seed,
/// attempt) on every host, and tests assert them exactly.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub use analysis::{ContextPathStat, HotPathReport, HotProcReport, PathClass, PathStat, ProcStat};
pub use chaos::{ChaosProxy, Fault, FaultPlan};
pub use error::PpError;
pub use integrity::{IntegrityError, IntegrityReport};
pub use merge::{
    MergeError, MergeManifest, MergeOptions, MergeOutcome, MergeReport, ShardRecord, ShardStatus,
};
pub use profile::{FlowProfile, PathCell};
pub use profiler::{ProfileError, Profiler, RunConfig, RunOutcome, RunReport};
pub use report::TextTable;
pub use server::ServerConfig;
pub use service::{
    AdmitError, JobState, JobView, Service, ServiceConfig, ServiceFaultPlan, ServiceMetrics,
    ServicePhase, ServiceReport, SpecResolver,
};
pub use supervisor::manifest::{BatchManifest, JobEntry, JobStatus, ProfileRef};
pub use supervisor::{
    BatchFaultPlan, BatchReport, ExecEvent, ExecOutcome, FailureClass, FailureKind, JobExecutor,
    JobFailure, JobFaults, JobRetry, JobSpec, RetryStep, Supervisor,
};
pub use transport::{BindAddr, Client, ClientConfig, Listener, RetryPolicy, Stream};
