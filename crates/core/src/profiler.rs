//! Running programs under a profiling configuration.

use std::fmt;

use pp_cct::{CctConfig, CctRuntime, ProcInfo};
use pp_instrument::{instrument_program, InstrumentError, InstrumentOptions, Instrumented, Mode};
use pp_ir::{HwEvent, Program};
use pp_obs::{NoopRecorder, Recorder};
use pp_usim::{ExecError, FaultPlan, GuestLimits, Machine, MachineConfig, NullSink, RunResult};

use crate::profile::FlowProfile;
use crate::sink_impl::PpSink;

/// A profiling configuration — the paper's run configurations plus the
/// uninstrumented base.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunConfig {
    /// Uninstrumented execution.
    Base,
    /// CFG edge frequencies only (\[BL94\]) — the baseline the paper
    /// compares path profiling's cost against.
    EdgeFreq,
    /// Path frequencies only (\[BL96\]).
    FlowFreq,
    /// "Flow and HW": two metrics along intraprocedural paths.
    FlowHw {
        /// Events on `%pic0` / `%pic1`.
        events: (HwEvent, HwEvent),
    },
    /// "Context and HW": metric deltas in the CCT.
    ContextHw {
        /// Events on `%pic0` / `%pic1`.
        events: (HwEvent, HwEvent),
    },
    /// "Context and Flow": path frequencies per call record.
    ContextFlow,
    /// Paths and metrics per call record.
    CombinedHw {
        /// Events on `%pic0` / `%pic1`.
        events: (HwEvent, HwEvent),
    },
}

impl RunConfig {
    /// The instrumentation mode, or `None` for the base run.
    pub fn mode(self) -> Option<Mode> {
        match self {
            RunConfig::Base => None,
            RunConfig::EdgeFreq => Some(Mode::EdgeFreq),
            RunConfig::FlowFreq => Some(Mode::FlowFreq),
            RunConfig::FlowHw { .. } => Some(Mode::FlowHw),
            RunConfig::ContextHw { .. } => Some(Mode::ContextHw),
            RunConfig::ContextFlow => Some(Mode::ContextFlow),
            RunConfig::CombinedHw { .. } => Some(Mode::CombinedHw),
        }
    }

    fn events(self) -> (HwEvent, HwEvent) {
        match self {
            RunConfig::FlowHw { events }
            | RunConfig::ContextHw { events }
            | RunConfig::CombinedHw { events } => events,
            _ => (HwEvent::Insts, HwEvent::DcMiss),
        }
    }

    /// The paper's name for this configuration.
    pub fn paper_name(self) -> &'static str {
        match self {
            RunConfig::Base => "Base",
            RunConfig::EdgeFreq => "Edge (freq)",
            RunConfig::FlowFreq => "Flow (freq)",
            RunConfig::FlowHw { .. } => "Flow and HW",
            RunConfig::ContextHw { .. } => "Context and HW",
            RunConfig::ContextFlow => "Context and Flow",
            RunConfig::CombinedHw { .. } => "Combined",
        }
    }
}

impl fmt::Display for RunConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Profiling failure.
#[derive(Debug)]
pub enum ProfileError {
    /// Instrumentation failed.
    Instrument(InstrumentError),
    /// The (possibly instrumented) program crashed or ran away.
    Exec(ExecError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Instrument(e) => write!(f, "instrumentation failed: {e}"),
            ProfileError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<InstrumentError> for ProfileError {
    fn from(e: InstrumentError) -> ProfileError {
        ProfileError::Instrument(e)
    }
}

impl From<ExecError> for ProfileError {
    fn from(e: ExecError) -> ProfileError {
        ProfileError::Exec(e)
    }
}

/// The outcome of one profiled run.
#[derive(Debug)]
pub struct RunReport {
    /// The configuration that produced this report.
    pub config: RunConfig,
    /// Machine-level outcome (ground-truth metrics, cycles, code size).
    pub machine: RunResult,
    /// Flow profile (modes with per-procedure counter tables).
    pub flow: Option<FlowProfile>,
    /// The calling context tree (context modes).
    pub cct: Option<CctRuntime>,
    /// The instrumentation manifest (absent for base runs) — carries the
    /// path analyses needed to decode path sums.
    pub instrumented: Option<Instrumented>,
}

impl RunReport {
    /// Simulated cycles — the paper's "Time".
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }
}

/// The outcome of a profiled run: the report plus, when execution was cut
/// short, the fault that ended it.
///
/// A faulted run is not discarded — `report` carries everything the
/// profile collected up to the fault (the paper's counters survive
/// interrupts; ours survive aborts). `RunOutcome` derefs to
/// [`RunReport`], so read access (`outcome.flow`, `outcome.cycles()`)
/// works unchanged whether or not the run completed.
#[derive(Debug)]
pub struct RunOutcome {
    /// The collected profile — complete, or partial up to `fault`.
    pub report: RunReport,
    /// The execution error that aborted the run, if any.
    pub fault: Option<ExecError>,
}

impl RunOutcome {
    /// Did the program run to completion?
    pub fn is_complete(&self) -> bool {
        self.fault.is_none()
    }

    /// The report, requiring a clean run.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Exec`] when the run was aborted (the
    /// partial profile is dropped — use `report` directly to keep it).
    pub fn into_complete(self) -> Result<RunReport, ProfileError> {
        match self.fault {
            None => Ok(self.report),
            Some(e) => Err(ProfileError::Exec(e)),
        }
    }

    /// The report of a run asserted to have completed.
    ///
    /// # Panics
    ///
    /// Panics if the run was aborted by an [`ExecError`].
    pub fn expect_complete(self) -> RunReport {
        match self.fault {
            None => self.report,
            Some(e) => panic!("run did not complete: {e}"),
        }
    }
}

impl std::ops::Deref for RunOutcome {
    type Target = RunReport;

    fn deref(&self) -> &RunReport {
        &self.report
    }
}

impl std::ops::DerefMut for RunOutcome {
    fn deref_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }
}

/// The PP profiler: instruments and runs programs.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    machine_config: MachineConfig,
    fault_plan: FaultPlan,
    limits: GuestLimits,
    cct_max_records: u32,
}

impl Profiler {
    /// Creates a profiler whose runs use `machine_config`.
    pub fn new(machine_config: MachineConfig) -> Profiler {
        Profiler {
            machine_config,
            fault_plan: FaultPlan::default(),
            limits: GuestLimits::default(),
            cct_max_records: 0,
        }
    }

    /// Injects `plan` into every machine this profiler runs (fault
    /// testing: preloaded counters, read skew, forced aborts).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Profiler {
        self.fault_plan = plan;
        self
    }

    /// Imposes [`GuestLimits`] (fuel, memory cap, call-depth cap,
    /// deadline, cancellation) on every decoded-machine run. A tripped
    /// limit comes back as a [`RunOutcome`] whose fault is
    /// [`ExecError::LimitExceeded`] and whose report holds the partial
    /// profile. The tree-walking reference interpreter ignores limits
    /// (it is a differential oracle, never run unattended), so do not
    /// set limits on runs that will be compared differentially.
    pub fn with_limits(mut self, limits: GuestLimits) -> Profiler {
        self.limits = limits;
        self
    }

    /// The guest limits in effect.
    pub fn limits(&self) -> &GuestLimits {
        &self.limits
    }

    /// Caps the CCT record arena at `max_records` (0 = unlimited). Once
    /// full, new contexts collapse onto shared per-procedure overflow
    /// records — the profile degrades DCG-style instead of growing
    /// without bound (see [`CctConfig::max_records`]).
    pub fn with_cct_record_cap(mut self, max_records: u32) -> Profiler {
        self.cct_max_records = max_records;
        self
    }

    /// The machine configuration in use.
    pub fn machine_config(&self) -> &MachineConfig {
        &self.machine_config
    }

    /// Instruments (per `config`) and executes `program`.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Instrument`] when Ball–Larus analysis or
    /// rewriting fails. Machine-level failures (stack overflow,
    /// instruction limit, invalid indirect call, injected aborts) do
    /// *not* discard the run: they come back as a [`RunOutcome`] whose
    /// `fault` is set and whose report holds the profile collected up to
    /// the fault.
    pub fn run(&self, program: &Program, config: RunConfig) -> Result<RunOutcome, ProfileError> {
        self.run_observed(program, config, NoopRecorder)
    }

    /// Like [`Profiler::run`], but feeding internals metrics (CCT enter
    /// outcomes, list-scan lengths, path events, …) into `recorder` —
    /// typically `&mut pp_obs::Registry`. `pp stats` and the metrics
    /// determinism tests use this; [`Profiler::run`] itself passes
    /// [`NoopRecorder`], which monomorphizes the recording away.
    ///
    /// # Errors
    ///
    /// As for [`Profiler::run`].
    pub fn run_observed<R: Recorder>(
        &self,
        program: &Program,
        config: RunConfig,
        recorder: R,
    ) -> Result<RunOutcome, ProfileError> {
        let Some(mode) = config.mode() else {
            let mut machine = {
                let _span = pp_obs::span!("decode");
                Machine::new(program, self.machine_config)
            };
            machine.inject_faults(self.fault_plan);
            machine.set_limits(self.limits.clone());
            let _span = pp_obs::span!("simulate");
            let (machine, fault) = match machine.run(&mut NullSink) {
                Ok(r) => (r, None),
                Err(e) => (machine.partial_result(), Some(e)),
            };
            return Ok(RunOutcome {
                report: RunReport {
                    config,
                    machine,
                    flow: None,
                    cct: None,
                    instrumented: None,
                },
                fault,
            });
        };

        let (pic0, pic1) = config.events();
        let options = InstrumentOptions::new(mode).with_events(pic0, pic1);
        self.run_with(program, config, options, None, recorder)
    }

    /// Like [`Profiler::run`] but with full control over instrumentation
    /// options (placement strategy, hash threshold, backedge ticks) — used
    /// by the ablation benchmarks.
    ///
    /// # Errors
    ///
    /// As for [`Profiler::run`].
    pub fn run_instrumented(
        &self,
        program: &Program,
        config: RunConfig,
        options: InstrumentOptions,
    ) -> Result<RunOutcome, ProfileError> {
        self.run_full(program, config, options, None)
    }

    /// The fully general entry point: explicit instrumentation options
    /// plus an optional CCT configuration override (used by the
    /// call-site-vs-procedure-slot ablation).
    ///
    /// # Errors
    ///
    /// As for [`Profiler::run`].
    pub fn run_full(
        &self,
        program: &Program,
        config: RunConfig,
        options: InstrumentOptions,
        cct_override: Option<CctConfig>,
    ) -> Result<RunOutcome, ProfileError> {
        self.run_with(program, config, options, cct_override, NoopRecorder)
    }

    fn run_with<R: Recorder>(
        &self,
        program: &Program,
        config: RunConfig,
        options: InstrumentOptions,
        cct_override: Option<CctConfig>,
        recorder: R,
    ) -> Result<RunOutcome, ProfileError> {
        let (inst, mut sink) = self.profile_parts(program, options, cct_override, recorder)?;
        let mut machine = {
            let _span = pp_obs::span!("decode");
            Machine::new(&inst.program, self.machine_config)
        };
        machine.inject_faults(self.fault_plan);
        machine.set_limits(self.limits.clone());
        // On a machine fault the sink still holds everything collected up
        // to the fault; recover it rather than discarding the run.
        let _span = pp_obs::span!("simulate");
        let result = machine.run(&mut sink);
        if R::ENABLED {
            let cold_taken = machine.cold_taken();
            if cold_taken > 0 {
                sink.recorder.counter("dispatch.cold_taken", cold_taken);
            }
            sink.fold();
        }
        let (machine, fault) = match result {
            Ok(r) => (r, None),
            Err(e) => (machine.partial_result(), Some(e)),
        };
        Ok(RunOutcome {
            report: RunReport {
                config,
                machine,
                flow: sink.flow,
                cct: sink.cct,
                instrumented: Some(inst),
            },
            fault,
        })
    }

    /// Instruments `program` and allocates the profile state the sink
    /// will populate — everything a run needs except the machine itself.
    fn profile_parts<R: Recorder>(
        &self,
        program: &Program,
        options: InstrumentOptions,
        cct_override: Option<CctConfig>,
        recorder: R,
    ) -> Result<(Instrumented, PpSink<R>), ProfileError> {
        let mode = options.mode;
        let _span = pp_obs::span!("instrument");
        let inst = instrument_program(program, options)?;

        let flow = matches!(mode, Mode::FlowFreq | Mode::FlowHw | Mode::EdgeFreq)
            .then(|| FlowProfile::new(program.procedures().len()));
        let cct = mode.tracks_context().then(|| {
            let procs: Vec<ProcInfo> = inst
                .proc_meta
                .iter()
                .map(|m| {
                    let mut info = ProcInfo::new(&m.name, m.num_call_sites).with_paths(m.num_paths);
                    for (site, &ind) in m.indirect_sites.iter().enumerate() {
                        if ind {
                            info = info.with_indirect_site(site as u32);
                        }
                    }
                    info
                })
                .collect();
            let mut cct_config = cct_override.unwrap_or(match mode {
                Mode::ContextHw => CctConfig::with_hw_metrics(),
                Mode::ContextFlow => CctConfig::combined(false),
                Mode::CombinedHw => CctConfig::combined(true),
                _ => unreachable!("context modes only"),
            });
            if self.cct_max_records != 0 {
                cct_config.max_records = self.cct_max_records;
            }
            CctRuntime::new(cct_config, procs)
        });

        Ok((inst, PpSink::new(flow, cct, recorder)))
    }

    /// Like [`Profiler::run`], but executing on the pre-predecoding
    /// tree-walking [`ReferenceMachine`](pp_usim::reference::ReferenceMachine)
    /// instead of the micro-op-arena [`Machine`]. Instrumentation, sink
    /// state, and fault injection are identical, so the two profiles must
    /// agree bit for bit — the differential tests assert exactly that,
    /// and `pp bench` times the two pipelines against each other.
    ///
    /// # Errors
    ///
    /// As for [`Profiler::run`].
    #[cfg(feature = "reference")]
    pub fn run_reference(
        &self,
        program: &Program,
        config: RunConfig,
    ) -> Result<RunOutcome, ProfileError> {
        self.run_reference_observed(program, config, NoopRecorder)
    }

    /// [`Profiler::run_reference`] with internals metrics fed into
    /// `recorder`, mirroring [`Profiler::run_observed`] — the metrics
    /// determinism test drives both and asserts identical snapshots.
    ///
    /// # Errors
    ///
    /// As for [`Profiler::run`].
    #[cfg(feature = "reference")]
    pub fn run_reference_observed<R: Recorder>(
        &self,
        program: &Program,
        config: RunConfig,
        recorder: R,
    ) -> Result<RunOutcome, ProfileError> {
        use pp_usim::reference::ReferenceMachine;

        let Some(mode) = config.mode() else {
            let mut machine = ReferenceMachine::new(program, self.machine_config);
            machine.inject_faults(self.fault_plan);
            let _span = pp_obs::span!("simulate.reference");
            let (machine, fault) = match machine.run(&mut NullSink) {
                Ok(r) => (r, None),
                Err(e) => (machine.partial_result(), Some(e)),
            };
            return Ok(RunOutcome {
                report: RunReport {
                    config,
                    machine,
                    flow: None,
                    cct: None,
                    instrumented: None,
                },
                fault,
            });
        };

        let (pic0, pic1) = config.events();
        let options = InstrumentOptions::new(mode).with_events(pic0, pic1);
        let (inst, mut sink) = self.profile_parts(program, options, None, recorder)?;
        let mut machine = ReferenceMachine::new(&inst.program, self.machine_config);
        machine.inject_faults(self.fault_plan);
        let _span = pp_obs::span!("simulate.reference");
        let result = machine.run(&mut sink);
        sink.fold();
        let (machine, fault) = match result {
            Ok(r) => (r, None),
            Err(e) => (machine.partial_result(), Some(e)),
        };
        Ok(RunOutcome {
            report: RunReport {
                config,
                machine,
                flow: sink.flow,
                cct: sink.cct,
                instrumented: Some(inst),
            },
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ir::build::ProgramBuilder;
    use pp_ir::Operand;

    /// main calls leaf in a loop; leaf branches on its argument's parity.
    fn sample_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare("leaf");
        let mut m = pb.procedure("main");
        let e = m.entry_block();
        let h = m.new_block();
        let body = m.new_block();
        let x = m.new_block();
        let i = m.new_reg();
        let c = m.new_reg();
        m.block(e).mov(i, 0i64).jump(h);
        m.block(h).cmp_lt(c, i, 20i64).branch(c, body, x);
        m.block(body)
            .call(leaf, vec![Operand::Reg(i)], None)
            .add(i, i, 1i64)
            .jump(h);
        m.block(x).ret();
        let main = m.finish();

        let mut l = pb.procedure_for(leaf);
        let e = l.entry_block();
        let odd = l.new_block();
        let even = l.new_block();
        let x = l.new_block();
        l.reserve_regs(1);
        let p = l.new_reg();
        let arg = pp_ir::Reg(0);
        l.block(e)
            .bin(pp_ir::instr::BinOp::And, p, arg, 1i64)
            .branch(p, odd, even);
        l.block(odd).nop().jump(x);
        l.block(even).nop().nop().jump(x);
        l.block(x).ret();
        l.finish();
        pb.finish(main)
    }

    /// Counts recorder calls, whatever they record.
    #[derive(Default)]
    struct CallCounter(u64);

    impl Recorder for CallCounter {
        fn counter(&mut self, _: &'static str, _: u64) {
            self.0 += 1;
        }

        fn gauge(&mut self, _: &'static str, _: f64) {
            self.0 += 1;
        }

        fn observe(&mut self, _: &'static str, _: u64) {
            self.0 += 1;
        }

        fn histogram(&mut self, _: &'static str, _: &pp_obs::Hist) {
            self.0 += 1;
        }
    }

    /// The observation-overhead gate: an observed run records its
    /// internals once, after the run, so the number of recorder calls
    /// does not grow with the run. A per-event record on the hot path
    /// fails this on any host, with no wall-clock bound.
    #[test]
    fn observed_runs_make_a_constant_number_of_recorder_calls() {
        let calls = |scale: f64| {
            // A program whose run length follows the scale (the CINT
            // programs sit at the kernel-iteration floor at both).
            let spec = pp_workloads::spec_for("104.hydro2d")
                .expect("known")
                .scaled(scale);
            let prog = pp_workloads::build(&spec);
            let mut rec = CallCounter::default();
            let config = RunConfig::CombinedHw {
                events: (HwEvent::Insts, HwEvent::DcMiss),
            };
            let run = Profiler::default()
                .run_observed(&prog, config, &mut rec)
                .expect("run")
                .expect_complete();
            (rec.0, run.machine.uops)
        };
        let (short_calls, short_uops) = calls(0.05);
        let (long_calls, long_uops) = calls(0.2);
        assert!(long_uops > 3 * short_uops, "{short_uops} vs {long_uops}");
        assert!(short_calls > 0);
        assert_eq!(short_calls, long_calls);
    }

    #[test]
    fn base_run_collects_no_profile() {
        let prog = sample_program();
        let r = Profiler::default().run(&prog, RunConfig::Base).unwrap();
        assert!(r.flow.is_none());
        assert!(r.cct.is_none());
        assert!(r.cycles() > 0);
    }

    #[test]
    fn flow_freq_counts_paths_exactly() {
        let prog = sample_program();
        let r = Profiler::default().run(&prog, RunConfig::FlowFreq).unwrap();
        let flow = r.flow.as_ref().unwrap();
        // leaf executes 20 times: 10 odd paths, 10 even paths.
        let leaf = prog.find_procedure("leaf").unwrap();
        assert_eq!(flow.paths_executed(leaf), 2);
        let total_leaf: u64 = (0..flow.num_procs() as u32)
            .filter(|&p| pp_ir::ProcId(p) == leaf)
            .map(|p| {
                flow.iter_paths()
                    .filter(|(pr, _, _)| *pr == pp_ir::ProcId(p))
                    .map(|(_, _, c)| c.freq)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(total_leaf, 20);
        // main: 20 loop iterations + entry/exit paths.
        let main = prog.find_procedure("main").unwrap();
        let main_total: u64 = flow
            .iter_paths()
            .filter(|(p, _, _)| *p == main)
            .map(|(_, _, c)| c.freq)
            .sum();
        assert_eq!(main_total, 21); // 20 backedge events + 1 final
    }

    #[test]
    fn flow_hw_measures_instructions_per_path() {
        let prog = sample_program();
        let r = Profiler::default()
            .run(
                &prog,
                RunConfig::FlowHw {
                    events: (HwEvent::Insts, HwEvent::DcMiss),
                },
            )
            .unwrap();
        let flow = r.flow.as_ref().unwrap();
        let leaf = prog.find_procedure("leaf").unwrap();
        // The "even" path executes one more nop than the "odd" path; the
        // recorded per-path instruction totals must differ accordingly.
        let cells: Vec<(u64, crate::profile::PathCell)> = flow
            .iter_paths()
            .filter(|(p, _, _)| *p == leaf)
            .map(|(_, s, c)| (s, c))
            .collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].1.freq, 10);
        assert_eq!(cells[1].1.freq, 10);
        let per_exec: Vec<u64> = cells.iter().map(|(_, c)| c.m0 / c.freq).collect();
        assert_ne!(per_exec[0], per_exec[1], "paths have different lengths");
        // One extra nop, plus up to two instrumentation instructions that
        // land on one path but not the other (measured perturbation —
        // exactly the Section 3.2 effect).
        let diff = per_exec[0].abs_diff(per_exec[1]);
        assert!((1..=3).contains(&diff), "diff = {diff}");
    }

    #[test]
    fn context_flow_builds_cct_with_path_tables() {
        let prog = sample_program();
        let r = Profiler::default()
            .run(&prog, RunConfig::ContextFlow)
            .unwrap();
        let cct = r.cct.as_ref().unwrap();
        assert_eq!(cct.num_records(), 2); // main + leaf under main
        let leaf_rec = cct
            .record_ids()
            .find(|&id| cct.record(id).proc_name() == "leaf")
            .unwrap();
        let paths = cct.record(leaf_rec).paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths.iter().map(|(_, c)| c.freq).sum::<u64>(), 20);
    }

    #[test]
    fn context_hw_records_inclusive_deltas() {
        let prog = sample_program();
        let r = Profiler::default()
            .run(
                &prog,
                RunConfig::ContextHw {
                    events: (HwEvent::Insts, HwEvent::Cycles),
                },
            )
            .unwrap();
        let cct = r.cct.as_ref().unwrap();
        let main_rec = cct
            .record_ids()
            .find(|&id| cct.record(id).proc_name() == "main")
            .unwrap();
        let leaf_rec = cct
            .record_ids()
            .find(|&id| cct.record(id).proc_name() == "leaf")
            .unwrap();
        let m = cct.record(main_rec).metrics()[0];
        let l = cct.record(leaf_rec).metrics()[0];
        assert!(m > l, "main's inclusive instructions exceed leaf's");
        assert!(l > 0);
    }

    #[test]
    fn overhead_ordering_base_cheapest() {
        let prog = sample_program();
        let p = Profiler::default();
        let base = p.run(&prog, RunConfig::Base).unwrap().cycles();
        let flow = p
            .run(
                &prog,
                RunConfig::FlowHw {
                    events: (HwEvent::Insts, HwEvent::DcMiss),
                },
            )
            .unwrap()
            .cycles();
        assert!(flow > base, "instrumentation must cost cycles");
    }

    #[test]
    fn combined_mode_distinguishes_contexts_of_paths() {
        // Two callers of leaf -> two leaf records, each with its own path
        // table.
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare("leaf");
        let a = pb.declare("a");
        let b = pb.declare("b");
        let mut m = pb.procedure("main");
        let e = m.entry_block();
        m.block(e).call(a, vec![], None).call(b, vec![], None).ret();
        let main = m.finish();
        for (id, arg) in [(a, 0i64), (b, 1i64)] {
            let mut p = pb.procedure_for(id);
            let e = p.entry_block();
            p.block(e).call(leaf, vec![Operand::Imm(arg)], None).ret();
            p.finish();
        }
        let mut l = pb.procedure_for(leaf);
        let e = l.entry_block();
        let odd = l.new_block();
        let even = l.new_block();
        let x = l.new_block();
        l.reserve_regs(1);
        l.block(e).branch(pp_ir::Reg(0), odd, even);
        l.block(odd).nop().jump(x);
        l.block(even).nop().jump(x);
        l.block(x).ret();
        l.finish();
        let prog = pb.finish(main);

        let r = Profiler::default()
            .run(
                &prog,
                RunConfig::CombinedHw {
                    events: (HwEvent::Insts, HwEvent::DcMiss),
                },
            )
            .unwrap();
        let cct = r.cct.as_ref().unwrap();
        let leaf_records: Vec<_> = cct
            .record_ids()
            .filter(|&id| cct.record(id).proc_name() == "leaf")
            .collect();
        assert_eq!(leaf_records.len(), 2, "one record per calling context");
        // Each context executed a different path.
        let sums: Vec<Vec<u64>> = leaf_records
            .iter()
            .map(|&id| cct.record(id).paths().iter().map(|&(s, _)| s).collect())
            .collect();
        assert_ne!(sums[0], sums[1]);
    }
}
