#![warn(missing_docs)]

//! # pp-usim — the machine underneath the profiler
//!
//! The PLDI'97 system measured real programs on a Sun UltraSPARC whose
//! hardware counters PP's instrumentation read and zeroed from user mode.
//! This crate is the reproduction's stand-in for that machine: an
//! interpreter for `pp-ir` programs with a microarchitectural cost model
//! that produces every metric the paper reports —
//!
//! * an L1 **data cache** (16 KB direct-mapped, 32-byte lines,
//!   write-through / no-allocate, like the UltraSPARC's on-chip D-cache),
//! * an L1 **instruction cache** (16 KB, 2-way),
//! * a 2-bit saturating-counter **branch predictor** plus a last-target
//!   predictor for multi-way switches,
//! * a draining **store buffer** whose overflow produces store-buffer
//!   stall cycles,
//! * a **floating point unit** with multi-cycle latency producing FP
//!   stalls, and
//! * two 32-bit **performance counters** (`%pic0`/`%pic1`) selected by a
//!   control register ([`Instr::SetPcr`](pp_ir::Instr::SetPcr)) and
//!   readable/writable by the running program — with 32-bit wrap-around,
//!   which is why the paper reads counters along loop backedges
//!   (Section 4.3).
//!
//! Profiling pseudo-ops ([`pp_ir::ProfOp`]) execute with realistic costs:
//! their micro-ops consume cycles and their counter updates are memory
//! accesses through the same D-cache as the program's own loads and
//! stores, so instrumentation perturbs the measured metrics — the effect
//! quantified in the paper's Table 2. Their profiling *semantics* are
//! delivered to a [`ProfSink`] implemented by the profiler runtime
//! (`pp-core`).
//!
//! ```
//! use pp_ir::build::ProgramBuilder;
//! use pp_ir::{HwEvent, Operand, Reg};
//! use pp_usim::{Machine, MachineConfig, NullSink};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.procedure("main");
//! let e = f.entry_block();
//! let r = f.new_reg();
//! f.block(e).mov(r, 21i64).add(r, r, Operand::Reg(r)).ret();
//! let id = f.finish();
//! let program = pb.finish(id);
//!
//! let mut machine = Machine::new(&program, MachineConfig::default());
//! let run = machine.run(&mut NullSink).unwrap();
//! assert!(run.metrics.get(HwEvent::Insts) >= 3);
//! ```

mod cache;
mod config;
mod decode;
mod fault;
mod layout;
mod limits;
mod machine;
mod mem;
pub mod meta;
mod metrics;
mod predict;
#[cfg(feature = "reference")]
pub mod reference;
mod sink;

pub use cache::{AssocCache, DirectMappedCache};
pub use config::MachineConfig;
pub use decode::DecodedProgram;
pub use fault::{FaultLog, FaultPlan, PicClobber, ReadSkew};
pub use layout::CodeLayout;
pub use limits::{CancelToken, GuestLimits, LimitKind, DEFAULT_CHECK_INTERVAL};
pub use machine::{CounterNote, ExecError, Machine, RunResult};
pub use mem::Memory;
pub use meta::MetaProfile;
pub use metrics::HwMetrics;
pub use predict::{BranchPredictor, TargetPredictor};
pub use sink::{CctTransition, NullSink, ProfSink, RecordingSink, SinkEvent};
