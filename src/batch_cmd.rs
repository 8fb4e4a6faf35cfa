//! The `pp batch` subcommand: a supervised campaign of profiling jobs
//! over the workload suite.
//!
//! Wraps [`pp::profiler::Supervisor`]: N panic-isolated workers, guest
//! resource limits (fuel, wall-clock deadline), transient-failure
//! retries with deterministic backoff, and crash-safe checkpointing
//! (`--checkpoint-dir`, `--resume`). SIGINT or SIGTERM asks for a
//! graceful stop — scheduling halts, in-flight jobs drain, a final
//! manifest is written; a second signal also cancels the running
//! guests (see [`crate::signals`]).
//!
//! `--inject` drives the supervisor's fault plan from the command line
//! (hang / panic / transient / truncate / halt), which is how the CI
//! crash-and-resume check and the acceptance campaign exercise the
//! recovery paths without patching the binary.

use std::time::Duration;

use pp::ir::build::ProgramBuilder;
use pp::ir::Program;
use pp::profiler::{BatchFaultPlan, JobSpec, JobStatus, PpError, Supervisor};
use pp::usim::{CancelToken, ExecError, GuestLimits, LimitKind};

use crate::Args;

/// Fuel budget when `--fuel` is not given: far above anything the suite
/// needs at its default scale, small enough that an injected infinite
/// loop burns out in seconds instead of wedging a worker forever.
pub const DEFAULT_FUEL: u64 = 1_000_000_000;

/// Parsed `--inject` spec. Hangs swap a job's program for an infinite
/// loop (terminated by the fuel budget); the rest map directly onto the
/// supervisor's [`BatchFaultPlan`].
#[derive(Default)]
struct InjectPlan {
    hangs: Vec<usize>,
    fault_plan: BatchFaultPlan,
    /// The tokens that change what the campaign *computes* (hang swaps
    /// a program; panic/transient change persisted attempt counts), in
    /// canonical form for the manifest's params tag. `truncate`/`halt`
    /// stay out: they are exactly the crashes `--resume` recovers from,
    /// so a resume without them must still match the checkpoint.
    params_tag: Vec<String>,
}

impl InjectPlan {
    /// Parses `hang@I`, `panic@I[:N]`, `transient@I[:N]`,
    /// `corrupt@I[:N]`, `truncate@W[:KEEP]`, `halt@W`, comma-separated.
    fn parse(spec: Option<&str>, num_jobs: usize) -> Result<InjectPlan, PpError> {
        let mut plan = InjectPlan::default();
        let Some(spec) = spec else {
            return Ok(plan);
        };
        for token in spec.split(',').filter(|t| !t.is_empty()) {
            let (kind, rest) = token.split_once('@').ok_or_else(|| {
                PpError::Usage(format!("--inject token `{token}` needs `kind@index`"))
            })?;
            let (at, n) = match rest.split_once(':') {
                Some((at, n)) => (at, Some(n)),
                None => (rest, None),
            };
            let at: usize = at
                .parse()
                .map_err(|_| PpError::Usage(format!("--inject `{token}`: bad index `{at}`")))?;
            let count = |default: u32| -> Result<u32, PpError> {
                n.map_or(Ok(default), |n| {
                    n.parse()
                        .map_err(|_| PpError::Usage(format!("--inject `{token}`: bad count `{n}`")))
                })
            };
            match kind {
                "hang" | "panic" | "transient" | "corrupt" if at >= num_jobs => {
                    return Err(PpError::Usage(format!(
                        "--inject `{token}`: job index {at} out of range ({num_jobs} jobs)"
                    )));
                }
                "hang" => {
                    plan.hangs.push(at);
                    plan.params_tag.push(format!("hang@{at}"));
                }
                "panic" => {
                    let n = count(u32::MAX)?;
                    plan.fault_plan = plan.fault_plan.panic_on_job(at, n);
                    plan.params_tag.push(format!("panic@{at}:{n}"));
                }
                "transient" => {
                    let n = count(1)?;
                    plan.fault_plan = plan.fault_plan.transient_on_job(at, n);
                    plan.params_tag.push(format!("transient@{at}:{n}"));
                }
                "corrupt" => {
                    let n = count(u32::MAX)?;
                    plan.fault_plan = plan.fault_plan.corrupt_on_job(at, n);
                    plan.params_tag.push(format!("corrupt@{at}:{n}"));
                }
                "truncate" => {
                    plan.fault_plan = plan
                        .fault_plan
                        .truncate_checkpoint(at as u32, u64::from(count(16)?));
                }
                "halt" => {
                    plan.fault_plan = plan.fault_plan.halt_after_checkpoints(at as u32);
                }
                other => {
                    return Err(PpError::Usage(format!(
                        "--inject: unknown kind `{other}` \
                         (hang|panic|transient|corrupt|truncate|halt)"
                    )));
                }
            }
        }
        Ok(plan)
    }
}

/// A well-formed CFG whose exit edge is dead at run time: `i` starts at
/// 0, the header loops while `i < 1`, and nothing ever increments `i`.
/// Instrumentation sees an ordinary two-path loop, so the hang rides
/// through every pipeline; only the fuel budget (or a deadline) stops
/// it.
fn hang_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.procedure("main");
    let e = f.entry_block();
    let h = f.new_block();
    let body = f.new_block();
    let x = f.new_block();
    let i = f.new_reg();
    let c = f.new_reg();
    f.block(e).mov(i, 0i64).jump(h);
    f.block(h).cmp_lt(c, i, 1i64).branch(c, body, x);
    f.block(body).nop().jump(h);
    f.block(x).ret();
    let id = f.finish();
    pb.finish(id)
}

/// Runs the campaign and prints the per-job table plus the
/// `supervisor.*` metrics summary.
///
/// # Errors
///
/// [`PpError::Usage`] for bad specs or mismatched resume state;
/// [`PpError::Corrupt`] for a torn checkpoint manifest;
/// [`PpError::Io`] when checkpointing fails; [`PpError::Aborted`] when
/// the campaign stops with jobs still pending (cancellation or an
/// injected halt) — per-job *failures* are reported in the table and do
/// not fail the command.
pub fn run_batch(args: &Args) -> Result<(), PpError> {
    let names: Vec<String> = if args.operands.is_empty() {
        pp::workloads::SUITE_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args.operands.clone()
    };
    // Batch defaults to the combined pipeline so checkpoints carry both
    // the flow and the CCT profile.
    let config_name = args.str("--config").unwrap_or("combined");
    let config = crate::config_by_name(config_name, args.events()?)?;
    let (checkpoint_dir, resume) = args.checkpoint()?;
    let scale = args.scale();
    let fuel = args.get("--fuel").unwrap_or(DEFAULT_FUEL);
    let deadline_s = args.get::<f64>("--deadline").filter(|d| *d > 0.0);
    let (workers, seed) = (args.workers(), args.get("--seed").unwrap_or(0));
    let inject = InjectPlan::parse(args.str("--inject"), names.len())?;

    let mut jobs = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let program = if inject.hangs.contains(&i) {
            hang_program()
        } else {
            crate::load_target(name, scale)?.1
        };
        jobs.push(JobSpec::new(name.clone(), program, config));
    }

    // Two-stage shutdown: the first SIGINT or SIGTERM cancels the
    // supervisor (drain in-flight, write the final manifest); the
    // second also cancels the guests, so even a long-fueled job stops
    // promptly.
    let graceful = CancelToken::new();
    let hard = CancelToken::new();
    crate::signals::install(graceful.clone(), hard.clone());

    let mut limits = GuestLimits::none()
        .with_fuel(fuel)
        .with_cancel(hard.clone());
    if let Some(d) = deadline_s {
        limits = limits.with_deadline(Duration::from_secs_f64(d));
    }
    let profiler = args.profiler().with_limits(limits);

    // Everything that changes what a job computes goes into the params
    // tag, so `--resume` refuses a checkpoint from a different campaign.
    let params = format!(
        "config={} scale={} fuel={} deadline={} inject={}",
        config_name,
        scale,
        fuel,
        deadline_s.unwrap_or(0.0),
        if inject.params_tag.is_empty() {
            "-".to_string()
        } else {
            inject.params_tag.join(",")
        },
    );

    let mut supervisor = Supervisor::new(profiler)
        .with_workers(workers)
        .with_max_retries(args.get("--retries").unwrap_or(2))
        .with_seed(seed)
        .with_params(&params)
        .with_cancel(graceful.clone())
        .with_quarantine_cap(args.get("--quarantine-cap").unwrap_or(0))
        .with_fault_plan(inject.fault_plan);
    if let Some(dir) = checkpoint_dir {
        supervisor = supervisor.with_checkpoint_dir(dir);
    }

    println!(
        "== pp batch: {} jobs on {} workers (seed {}, fuel {}{}) ==",
        jobs.len(),
        workers,
        seed,
        fuel,
        match deadline_s {
            Some(d) => format!(", deadline {d}s"),
            None => String::new(),
        },
    );
    let report = supervisor.run(&jobs, resume)?;

    let mut registry = pp::obs::Registry::new();
    report.record_metrics(&mut registry);

    println!(
        "{:<14} {:<8} {:>8} {:>12} {:>12}  detail",
        "job", "status", "attempts", "cycles", "uops"
    );
    for entry in &report.manifest.jobs {
        let status = match entry.status {
            JobStatus::Pending => "pending",
            JobStatus::Done => "done",
            JobStatus::Failed => "FAILED",
        };
        println!(
            "{:<14} {:<8} {:>8} {:>12} {:>12}  {}",
            entry.name, status, entry.attempts, entry.cycles, entry.uops, entry.detail
        );
    }
    let (pending, done, failed) = report.manifest.counts();
    println!(
        "\nsummary: {done} done, {failed} failed, {pending} pending | \
         {} retries, {} panics caught, {} limit stops, {} checkpoint writes, \
         {} resumed skips, {} quarantined",
        report.retries,
        report.panics,
        report.limit_stops,
        report.checkpoint_writes,
        report.resumed_skips,
        report.quarantined,
    );

    if pending == 0 {
        println!(
            "batch complete: all {} jobs finished ({done} done, {failed} failed)",
            report.manifest.jobs.len()
        );
        Ok(())
    } else {
        let hint = match checkpoint_dir {
            Some(dir) => format!("; resume with `pp batch --resume {dir}`"),
            None => " (no --checkpoint-dir, progress was not persisted)".to_string(),
        };
        println!(
            "batch interrupted: {pending} of {} jobs still pending{hint}",
            report.manifest.jobs.len()
        );
        Err(PpError::Aborted(ExecError::LimitExceeded(
            LimitKind::Cancelled,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp::profiler::{Profiler, RunConfig};

    #[test]
    fn inject_spec_parses_every_kind() {
        let p = InjectPlan::parse(
            Some("hang@2,panic@3,transient@5:2,truncate@4:20,halt@7"),
            10,
        )
        .unwrap();
        assert_eq!(p.hangs, vec![2]);
        assert_eq!(p.fault_plan.panic_on_job, Some((3, u32::MAX)));
        assert_eq!(p.fault_plan.transient_on_job, Some((5, 2)));
        assert_eq!(p.fault_plan.truncate_checkpoint, Some((4, 20)));
        assert_eq!(p.fault_plan.halt_after_checkpoints, Some(7));
        // Only the result-affecting tokens reach the params tag.
        assert_eq!(
            p.params_tag,
            vec!["hang@2", "panic@3:4294967295", "transient@5:2"]
        );
    }

    #[test]
    fn inject_spec_rejects_garbage() {
        for bad in ["nope@1", "panic", "panic@x", "panic@1:y", "hang@99"] {
            assert!(
                InjectPlan::parse(Some(bad), 10).is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn hang_program_is_instrumentable_and_fuel_bounded() {
        let program = hang_program();
        pp::ir::verify::verify_program(&program).expect("well-formed CFG");
        let profiler = Profiler::default().with_limits(GuestLimits::none().with_fuel(20_000));
        let run = profiler
            .run(&program, RunConfig::FlowFreq)
            .expect("instrumentation succeeds");
        match run.fault {
            Some(ExecError::LimitExceeded(LimitKind::Fuel { .. })) => {}
            other => panic!("expected a fuel stop, got {other:?}"),
        }
    }
}
