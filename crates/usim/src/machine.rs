//! The interpreter and its cost model.
//!
//! Execution runs over a predecoded micro-op arena ([`DecodedProgram`]):
//! the instruction pointer is an arena offset, control transfers are dense
//! block indices, registers for the whole call stack live in two flat
//! arenas (no per-call allocation), and per-block execution counts are a
//! dense `Vec<u64>`. The run loop is generic over the sink so profiling
//! event delivery monomorphizes; `&mut dyn ProfSink` still works (the
//! loop accepts `S: ?Sized`). The `%pic` registers are derived lazily
//! from the metric totals at observation points rather than updated on
//! every counted event. Register-file and arena accesses execute
//! unchecked in release builds — sound because
//! [`DecodedProgram::new`] validates every index a micro-op can name,
//! once, before execution (debug builds keep the checks as
//! `debug_assert!`s). The cost model is unchanged from the
//! original tree-walking interpreter, which survives as
//! [`crate::reference::ReferenceMachine`] behind the `reference` feature
//! and backs the differential test suite.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::time::Instant;

use pp_ir::instr::{BinOp, FBinOp};
use pp_ir::prof::{CounterStorage, PathTable};
use pp_ir::{BlockId, HwEvent, Operand, ProcId, ProfOp, Program, Reg};

use crate::cache::{AssocCache, DirectMappedCache};
use crate::config::MachineConfig;
use crate::decode::{BlockIdx, DecodedProgram, MicroOp};
use crate::fault::{FaultLog, FaultPlan};
use crate::layout::CodeLayout;
use crate::limits::{CancelToken, GuestLimits, LimitKind};
use crate::meta::EngineCounters;
use crate::metrics::HwMetrics;
use crate::predict::{BranchPredictor, TargetPredictor};
use crate::sink::ProfSink;
use crate::Memory;

/// A sampling configuration: interval in cycles plus the stack consumer.
type Sampler<'s> = (u64, &'s mut dyn FnMut(&[ProcId]));

/// True when the `PP_NO_FUSE` environment variable disables
/// superinstruction fusion (any value but `0`); the env override exists
/// so the differential oracle and CI can force the unfused arena without
/// plumbing a flag through every entry point.
fn env_no_fuse() -> bool {
    std::env::var_os("PP_NO_FUSE").is_some_and(|v| v != "0")
}

/// One integer ALU op. Shared by the plain `Bin` handler and every fused
/// superinstruction so the semantics (wrapping arithmetic, div/rem by
/// zero yielding 0) have exactly one definition.
#[inline(always)]
fn bin_eval(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::Rem => {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => ((x as u64) << (y as u64 & 63)) as i64,
        BinOp::Shr => ((x as u64) >> (y as u64 & 63)) as i64,
        BinOp::CmpLt => i64::from(x < y),
        BinOp::CmpLe => i64::from(x <= y),
        BinOp::CmpEq => i64::from(x == y),
        BinOp::CmpNe => i64::from(x != y),
    }
}

/// Execution failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExecError {
    /// Call depth exceeded [`MachineConfig::max_call_depth`].
    StackOverflow {
        /// Depth at which the overflow occurred.
        depth: usize,
    },
    /// The micro-op budget ran out (runaway program).
    InstructionLimit,
    /// An indirect call's register did not hold a valid procedure index.
    BadIndirectTarget {
        /// The offending register value.
        value: i64,
    },
    /// A longjmp used an invalid or stale token (stale includes a token
    /// whose frame depth has since been re-occupied by a different
    /// procedure's activation).
    BadJumpToken {
        /// The offending token value.
        value: i64,
    },
    /// An injected fault aborted the run (see
    /// [`FaultPlan::abort_at_uops`](crate::FaultPlan)).
    FaultAbort {
        /// Micro-ops retired when the abort fired.
        uops: u64,
    },
    /// A supervisor-imposed [`GuestLimits`] bound stopped the guest.
    /// [`Machine::partial_result`] still yields the profile collected up
    /// to the stop.
    LimitExceeded(LimitKind),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StackOverflow { depth } => write!(f, "call stack overflow at depth {depth}"),
            ExecError::InstructionLimit => f.write_str("instruction limit exceeded"),
            ExecError::BadIndirectTarget { value } => {
                write!(f, "indirect call through invalid procedure index {value}")
            }
            ExecError::BadJumpToken { value } => write!(f, "longjmp with invalid token {value}"),
            ExecError::FaultAbort { uops } => {
                write!(f, "injected fault aborted execution after {uops} uops")
            }
            ExecError::LimitExceeded(kind) => write!(f, "guest limit exceeded: {kind}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A typed annotation on a [`RunResult`] about counter reconciliation.
///
/// The architectural `%pic` registers are 32 bits wide and wrap silently;
/// both interpreters shadow them with 64-bit accumulators and, at every
/// profiling read, reconcile the architectural value against the shadow.
/// When the shadow shows the 32-bit register crossed one or more `2^32`
/// boundaries since the last read, the crossing count is accumulated and
/// reported here — long runs no longer lose high bits silently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterNote {
    /// `count` 32-bit PIC wraps were detected at profiling reads and
    /// reconciled against the 64-bit shadow accumulators.
    WrapReconciled {
        /// Total `2^32` boundary crossings observed across both counters.
        count: u64,
    },
}

/// The outcome of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Ground-truth totals for all sixteen events.
    pub metrics: HwMetrics,
    /// Total micro-ops executed (equals `metrics[Insts]`).
    pub uops: u64,
    /// Resident simulated memory pages at exit.
    pub resident_pages: usize,
    /// Total code bytes after layout (instrumentation grows this).
    pub code_bytes: u64,
    /// Final architectural counter registers `(%pic0, %pic1)`.
    pub pics: (u32, u32),
    /// Which injected faults actually fired during the run.
    pub fault_log: FaultLog,
    /// Counter-wrap reconciliation outcome (`None` when no 32-bit wrap
    /// was observed at any profiling read).
    pub counter_note: Option<CounterNote>,
}

impl RunResult {
    /// Elapsed simulated cycles — the paper's "Time" columns.
    pub fn cycles(&self) -> u64 {
        self.metrics.get(HwEvent::Cycles)
    }
}

#[derive(Debug)]
struct Frame {
    proc: ProcId,
    /// Dense index of the block being executed.
    block: BlockIdx,
    /// Resume arena offset. The dispatch loop keeps the live frame's
    /// instruction pointer in a local; this field is synced only when
    /// the frame calls out (so `Ret`/`Longjmp` can restore it).
    ip: u32,
    /// Start of this frame's registers in the machine's register arena.
    reg_base: u32,
    /// Start of this frame's FP registers in the FP register arena.
    freg_base: u32,
    /// Register in the *caller* receiving this frame's `r0` on return.
    ret_to: Option<Reg>,
    /// Counter save area (host mirror of the frame's save slots), held
    /// at shadow (64-bit) width so restores preserve wrap epochs.
    saved_pics: (u64, u64),
    /// Simulated address of the frame's profiling save area.
    frame_addr: u64,
}

/// The simulated machine. Create one per run; [`Machine::run`] executes the
/// program to completion.
pub struct Machine<'p> {
    program: &'p Program,
    layout: CodeLayout,
    decoded: DecodedProgram,
    config: MachineConfig,
    mem: Memory,
    dcache: DirectMappedCache,
    icache: AssocCache,
    l2: Option<AssocCache>,
    bp: BranchPredictor,
    tp: TargetPredictor,
    /// Lazy counters: the live 64-bit *shadow* value of `%pic_i` is
    /// `pic_base[i] + (metrics[pcr_i] - pic_snap[i])` (see
    /// [`Machine::pics_now`]); the architectural 32-bit register is its
    /// truncation. Event counting then only touches the 64-bit metric
    /// totals — the two per-event `pcr` comparisons the eager scheme paid
    /// on every counted micro-op vanish from the dispatch loop — and the
    /// counters materialize at observation points: profiling reads,
    /// `RdPic`, and run end. The shadow width is what lets profiling
    /// reads detect 32-bit wraps ([`CounterNote::WrapReconciled`]) at
    /// zero hot-path cost.
    pic_base: [u64; 2],
    pic_snap: [u64; 2],
    /// `2^32` epoch of each shadow counter at its last observation;
    /// profiling reads advance it and count crossings into `pic_wraps`.
    pic_epoch: [u64; 2],
    /// Total reconciled 32-bit wrap crossings (both counters).
    pic_wraps: u64,
    pcr: (HwEvent, HwEvent),
    metrics: HwMetrics,
    store_q: VecDeque<u64>,
    last_retire: u64,
    fp_busy: u64,
    frames: Vec<Frame>,
    /// Register arena for the whole call stack; frames hold base offsets.
    regs: Vec<i64>,
    fregs: Vec<f64>,
    /// Mirror of the live frame's bases (hot: every operand access).
    reg_base: usize,
    freg_base: usize,
    /// Live setjmp tokens: `(frame depth, owning proc, dense block,
    /// resume arena offset)`. The proc is re-checked on longjmp so a
    /// stale token whose depth was re-occupied by a different
    /// procedure's frame cannot resume the wrong code.
    setjmps: Vec<(usize, ProcId, BlockIdx, u32)>,
    /// Dense per-block execution counts, indexed by [`BlockIdx`].
    block_counts: Vec<u64>,
    /// Corrections to projecting `block_counts` through whole block
    /// bodies: `(block, from) -> n` means the block's micro-ops from
    /// arena offset `from` to its end ran `n` more times than the block
    /// was entered (negative when a longjmp or an error cut the block
    /// short, positive when a longjmp resumed it mid-block). Kept only
    /// when [`MachineConfig::trace_blocks`] is set, and only on cold
    /// paths.
    suffix_adjust: BTreeMap<(BlockIdx, u32), i64>,
    /// Inline caches for indirect call sites, indexed by the site's
    /// decode-assigned `ic`. Each entry holds the last *validated* target
    /// register value encoded as `value + 1` (0 = empty), so one compare
    /// revalidates a monomorphic site — a matching entry was range-checked
    /// when it was installed, and the empty encoding can't collide with
    /// any value (`v + 1 == 0` only for `v == -1`, which is invalid and
    /// therefore never installed).
    icall_ic: Vec<u64>,
    argv_scratch: Vec<i64>,
    fault: FaultPlan,
    fault_log: FaultLog,
    limits: GuestLimits,
    counter_reads: u64,
}

impl<'p> fmt::Debug for Machine<'p> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Machine(uops={}, depth={}, cycles={})",
            self.uops(),
            self.frames.len(),
            self.metrics.get(HwEvent::Cycles)
        )
    }
}

impl<'p> Machine<'p> {
    /// Prepares a machine for `program`: lays out code and predecodes the
    /// IR into the micro-op arena (data segments are loaded by
    /// [`Machine::run`]).
    pub fn new(program: &'p Program, config: MachineConfig) -> Machine<'p> {
        let layout = CodeLayout::new(program, config.code_base);
        let mut decoded = DecodedProgram::new(program, &layout);
        if !config.no_fuse && !env_no_fuse() {
            // Attributed to its own nested span so `phases_us` accounts
            // the fusion pass under `decode`, not `simulate`.
            let _span = pp_obs::span!("decode.fuse");
            decoded.fuse();
        }
        let num_blocks = decoded.num_blocks();
        let num_icall_sites = decoded.num_icall_sites as usize;
        Machine {
            program,
            layout,
            decoded,
            config,
            mem: Memory::new(),
            dcache: DirectMappedCache::new(config.dcache_bytes, config.dcache_line),
            icache: AssocCache::new(config.icache_bytes, config.icache_line, config.icache_ways),
            l2: (config.l2_bytes > 0)
                .then(|| AssocCache::new(config.l2_bytes, config.l2_line, config.l2_ways.max(1))),
            bp: BranchPredictor::new(config.predictor_entries),
            tp: TargetPredictor::new(config.predictor_entries / 4),
            pic_base: [0, 0],
            pic_snap: [0, 0],
            pic_epoch: [0, 0],
            pic_wraps: 0,
            pcr: (HwEvent::Cycles, HwEvent::Insts),
            metrics: HwMetrics::new(),
            store_q: VecDeque::new(),
            last_retire: 0,
            fp_busy: 0,
            frames: Vec::new(),
            regs: Vec::new(),
            fregs: Vec::new(),
            reg_base: 0,
            freg_base: 0,
            setjmps: Vec::new(),
            block_counts: vec![0; num_blocks],
            suffix_adjust: BTreeMap::new(),
            icall_ic: vec![0; num_icall_sites],
            argv_scratch: Vec::new(),
            fault: FaultPlan::default(),
            fault_log: FaultLog::default(),
            limits: GuestLimits::default(),
            counter_reads: 0,
        }
    }

    /// Installs a [`FaultPlan`] for the next [`Machine::run`]. Injection
    /// is deterministic: the same plan on the same program produces the
    /// same perturbed run.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = plan;
        self.fault_log = FaultLog::default();
    }

    /// Which injected faults have fired so far (see [`FaultLog`]).
    pub fn fault_log(&self) -> FaultLog {
        self.fault_log
    }

    /// Installs per-run [`GuestLimits`] (all off by default). The fuel
    /// budget folds into the run loop's hoisted stop bound; deadline,
    /// cancellation, and memory limits are checked cooperatively every
    /// [`GuestLimits::check_interval`] µops.
    pub fn set_limits(&mut self, limits: GuestLimits) {
        self.limits = limits;
    }

    /// The limits currently installed.
    pub fn limits(&self) -> &GuestLimits {
        &self.limits
    }

    /// The code layout in effect.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// The predecoded micro-op arena the machine executes.
    pub fn decoded(&self) -> &DecodedProgram {
        &self.decoded
    }

    /// Current ground-truth metrics (useful mid-run from tests).
    pub fn metrics(&self) -> &HwMetrics {
        &self.metrics
    }

    /// The simulated memory (inspect program results after a run).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The architectural counter registers `(%pic0, %pic1)`.
    pub fn pics(&self) -> (u32, u32) {
        let p = self.pics_now();
        (p[0] as u32, p[1] as u32)
    }

    /// Per-block execution counts, populated when
    /// [`MachineConfig::trace_blocks`] is set — the oracle that the
    /// path-profile projection tests compare against. Counts are kept in
    /// a dense per-block array during the run; this materializes the
    /// `(proc, block)`-keyed view (blocks that never executed are absent).
    pub fn block_counts(&self) -> HashMap<(ProcId, BlockId), u64> {
        self.decoded
            .blocks
            .iter()
            .zip(&self.block_counts)
            .filter(|(_, &c)| c > 0)
            .map(|(bm, &c)| ((bm.proc, bm.orig), c))
            .collect()
    }

    /// The raw dense per-block execution counts, indexed like
    /// [`DecodedProgram::blocks`]. Meaningful only when
    /// [`MachineConfig::trace_blocks`] is set; the meta-profiler uses
    /// this to project dynamic micro-op mixes without touching the hot
    /// path.
    pub(crate) fn block_counts_dense(&self) -> &[u64] {
        &self.block_counts
    }

    /// The block-suffix corrections to [`Machine::block_counts_dense`]
    /// (see the `suffix_adjust` field).
    pub(crate) fn suffix_adjustments(&self) -> &BTreeMap<(BlockIdx, u32), i64> {
        &self.suffix_adjust
    }

    /// The engine counters of the run so far (or of the run up to its
    /// fault), projected from the block counts — all zero unless
    /// [`MachineConfig::trace_blocks`] is set.
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters::project(self)
    }

    // ----- event plumbing -------------------------------------------------

    /// Counts `n` occurrences of `ev`. The `%pic` registers are derived
    /// from the metric totals lazily ([`Machine::pics_now`]), so this is
    /// a single indexed add.
    #[inline]
    fn count(&mut self, ev: HwEvent, n: u64) {
        self.metrics.add(ev, n);
    }

    /// Materializes the 64-bit shadow counters. Their low 32 bits are the
    /// architectural `(%pic0, %pic1)`: truncation distributes over
    /// addition, so `pics_now()[i] as u32` is bit-equal to updating a
    /// wrapping 32-bit register on every counted event.
    #[inline]
    fn pics_now(&self) -> [u64; 2] {
        [
            self.pic_base[0]
                .wrapping_add(self.metrics.get(self.pcr.0).wrapping_sub(self.pic_snap[0])),
            self.pic_base[1]
                .wrapping_add(self.metrics.get(self.pcr.1).wrapping_sub(self.pic_snap[1])),
        ]
    }

    /// Sets the shadow counters to `p` as of the current metric totals
    /// (counter writes, zeroing, restores). An explicit write re-anchors
    /// the wrap epochs rather than counting as a wrap.
    fn set_pics(&mut self, p: [u64; 2]) {
        self.pic_base = p;
        self.pic_snap = [self.metrics.get(self.pcr.0), self.metrics.get(self.pcr.1)];
        self.pic_epoch = [p[0] >> 32, p[1] >> 32];
    }

    /// Advances time by `n` cycles.
    #[inline]
    fn tick(&mut self, n: u64) {
        self.count(HwEvent::Cycles, n);
    }

    /// One completed micro-op: a cycle plus an instruction.
    #[inline]
    fn uop(&mut self) {
        self.count(HwEvent::Insts, 1);
        self.tick(1);
    }

    /// `n` completed micro-ops. Counter updates are plain wrapping
    /// accumulation, so one batched add is identical to `n` single ones.
    #[inline]
    fn uops_n(&mut self, n: u32) {
        self.count(HwEvent::Insts, n as u64);
        self.tick(n as u64);
    }

    /// Micro-ops retired so far. Single-sourced from the `Insts` metric
    /// (every retired micro-op counts exactly one instruction), so the
    /// dispatch loop maintains one total instead of two.
    #[inline]
    fn uops(&self) -> u64 {
        self.metrics.get(HwEvent::Insts)
    }

    fn now(&self) -> u64 {
        self.metrics.get(HwEvent::Cycles)
    }

    /// Charges the cost of an L1 miss: a flat penalty, or an L2 lookup
    /// when the external cache is enabled.
    fn l1_miss(&mut self, addr: u64) {
        self.tick(self.config.dcache_miss_penalty);
        if let Some(l2) = self.l2.as_mut() {
            if !l2.access(addr) {
                self.tick(self.config.l2_miss_penalty);
            }
        }
    }

    /// A data read through the cache (no architectural load of memory —
    /// callers read [`Memory`] themselves).
    fn dread(&mut self, addr: u64) {
        self.count(HwEvent::Loads, 1);
        self.count(HwEvent::DcRead, 1);
        if !self.dcache.access(addr, true) {
            self.count(HwEvent::DcReadMiss, 1);
            self.count(HwEvent::DcMiss, 1);
            self.l1_miss(addr);
        }
    }

    /// A data write through the write-through, no-allocate cache and the
    /// store buffer.
    fn dwrite(&mut self, addr: u64) {
        self.count(HwEvent::Stores, 1);
        self.count(HwEvent::DcWrite, 1);
        let hit = self.dcache.access(addr, false);
        let mut drain = self.config.store_drain_interval;
        if !hit {
            self.count(HwEvent::DcWriteMiss, 1);
            self.count(HwEvent::DcMiss, 1);
            // Missing stores occupy the buffer longer (and miss the L2
            // occasionally when it is enabled).
            drain += self.config.store_drain_interval;
            if let Some(l2) = self.l2.as_mut() {
                if !l2.access(addr) {
                    drain += self.config.l2_miss_penalty / 4;
                }
            }
        }
        let now = self.now();
        while let Some(&front) = self.store_q.front() {
            if front <= now {
                self.store_q.pop_front();
            } else {
                break;
            }
        }
        if self.store_q.len() >= self.config.store_buffer_depth {
            let front = *self.store_q.front().expect("nonempty when full");
            let stall = front - now;
            self.tick(stall);
            self.count(HwEvent::StoreBufStall, stall);
            self.store_q.pop_front();
        }
        let retire = self.now().max(self.last_retire) + drain;
        self.store_q.push_back(retire);
        self.last_retire = retire;
    }

    fn fp_issue(&mut self, latency: u64) {
        self.count(HwEvent::FpOps, 1);
        let now = self.now();
        if now < self.fp_busy {
            let stall = self.fp_busy - now;
            self.tick(stall);
            self.count(HwEvent::FpStall, stall);
        }
        self.fp_busy = self.now() + latency;
    }

    /// Fetches a block's code lines through the I-cache; `addr`/`bytes`
    /// come precomputed from [`crate::decode::BlockMeta`].
    fn ifetch(&mut self, addr: u64, bytes: u64) {
        let line = self.config.icache_line;
        let mut a = addr & !(line - 1);
        while a < addr + bytes {
            if !self.icache.access(a) {
                self.count(HwEvent::IcMiss, 1);
                self.tick(self.config.icache_miss_penalty);
            }
            a += line;
        }
    }

    // ----- register and operand access ------------------------------------

    #[inline]
    fn reg(&self, r: Reg) -> i64 {
        let slot = self.reg_base + r.index();
        debug_assert!(slot < self.regs.len());
        // SAFETY: decode validated every register a micro-op names
        // against its procedure's declared count, the arena keeps
        // `regs.len() == reg_base + num_regs` for the live frame
        // (`push_frame`/`Ret`/`Longjmp` maintain it), and the stale-token
        // guard in `Longjmp` guarantees resumed code and live frame
        // belong to the same procedure — so `slot` is in bounds.
        unsafe { *self.regs.get_unchecked(slot) }
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, v: i64) {
        let slot = self.reg_base + r.index();
        debug_assert!(slot < self.regs.len());
        // SAFETY: see `reg`.
        unsafe { *self.regs.get_unchecked_mut(slot) = v }
    }

    #[inline]
    fn freg(&self, r: pp_ir::FReg) -> f64 {
        let slot = self.freg_base + r.index();
        debug_assert!(slot < self.fregs.len());
        // SAFETY: see `reg` (decode validates fp registers identically).
        unsafe { *self.fregs.get_unchecked(slot) }
    }

    #[inline]
    fn set_freg(&mut self, r: pp_ir::FReg, v: f64) {
        let slot = self.freg_base + r.index();
        debug_assert!(slot < self.fregs.len());
        // SAFETY: see `reg` (decode validates fp registers identically).
        unsafe { *self.fregs.get_unchecked_mut(slot) = v }
    }

    #[inline]
    fn value(&self, op: Operand) -> i64 {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }

    fn frame_addr(&self) -> u64 {
        self.frames.last().expect("live frame").frame_addr
    }

    /// Pushes a callee frame and returns the arena offset of its entry
    /// block's first micro-op (the caller's new local `ip`).
    fn push_frame(
        &mut self,
        d: &DecodedProgram,
        proc: ProcId,
        args: &[i64],
        ret_to: Option<Reg>,
    ) -> Result<u32, ExecError> {
        if let Some(cap) = self.limits.max_call_depth {
            if self.frames.len() >= cap {
                return Err(ExecError::LimitExceeded(LimitKind::CallDepth {
                    depth: self.frames.len(),
                    cap,
                }));
            }
        }
        if self.frames.len() >= self.config.max_call_depth {
            return Err(ExecError::StackOverflow {
                depth: self.frames.len(),
            });
        }
        let pm = &d.procs[proc.index()];
        let reg_base = self.regs.len();
        let freg_base = self.fregs.len();
        self.regs.resize(reg_base + pm.num_regs as usize, 0);
        self.fregs.resize(freg_base + pm.num_fregs as usize, 0.0);
        let n = args.len().min(pm.num_regs as usize);
        self.regs[reg_base..reg_base + n].copy_from_slice(&args[..n]);
        let frame_addr =
            self.config.stack_top - (self.frames.len() as u64 + 1) * self.config.frame_bytes;
        let entry = pm.first_block;
        let bm = &d.blocks[entry as usize];
        self.frames.push(Frame {
            proc,
            block: entry,
            ip: bm.first_op,
            reg_base: reg_base as u32,
            freg_base: freg_base as u32,
            ret_to,
            saved_pics: (0, 0),
            frame_addr,
        });
        self.reg_base = reg_base;
        self.freg_base = freg_base;
        if self.config.trace_blocks {
            self.block_counts[entry as usize] += 1;
        }
        let (first_op, addr, bytes) = (bm.first_op, bm.addr, bm.bytes);
        self.ifetch(addr, bytes);
        Ok(first_op)
    }

    /// Evaluates call arguments into a reused scratch buffer and pushes
    /// the callee frame; returns the callee's first arena offset.
    fn call_with(
        &mut self,
        d: &DecodedProgram,
        callee: ProcId,
        args: &[Operand],
        ret: Option<Reg>,
    ) -> Result<u32, ExecError> {
        let mut argv = std::mem::take(&mut self.argv_scratch);
        argv.clear();
        argv.extend(args.iter().map(|&a| self.value(a)));
        let res = self.push_frame(d, callee, &argv, ret);
        self.argv_scratch = argv;
        res
    }

    /// Transfers control to dense block `t` within the live frame and
    /// returns its first arena offset.
    fn goto(&mut self, d: &DecodedProgram, t: BlockIdx) -> u32 {
        let bm = &d.blocks[t as usize];
        self.frames.last_mut().expect("live frame").block = t;
        if self.config.trace_blocks {
            self.block_counts[t as usize] += 1;
        }
        let (first_op, addr, bytes) = (bm.first_op, bm.addr, bm.bytes);
        self.ifetch(addr, bytes);
        first_op
    }

    // ----- cold handlers ---------------------------------------------------
    // The meta-profile puts every op below under 0.1% of dynamic
    // dispatches; outlining them keeps their (sizable) bodies out of the
    // dispatch loop's instruction footprint.

    #[cold]
    #[inline(never)]
    fn exec_setpcr(&mut self, pic0: HwEvent, pic1: HwEvent) {
        self.uop();
        // Materialize under the old selection, then re-anchor
        // the lazy counters on the new events. A selection
        // change keeps the counter values, so the wrap
        // epochs survive it too — a `2^32` crossing pending
        // at the switch stays visible to the next read,
        // exactly as in the eager reference interpreter.
        let cur = self.pics_now();
        self.pcr = (pic0, pic1);
        let epochs = self.pic_epoch;
        self.set_pics(cur);
        self.pic_epoch = epochs;
    }

    #[cold]
    #[inline(never)]
    fn exec_rdpic(&mut self, dst: Reg) {
        self.uop();
        let p = self.pics_now();
        let v = ((p[1] as u32 as u64) << 32) | p[0] as u32 as u64;
        self.set_reg(dst, v as i64);
    }

    #[cold]
    #[inline(never)]
    fn exec_wrpic(&mut self, src: Operand) {
        self.uop();
        let v = self.value(src) as u64;
        self.set_pics([v as u32 as u64, v >> 32]);
    }

    #[cold]
    #[inline(never)]
    fn exec_setjmp(&mut self, dst: Reg, ip: u32) {
        self.uop();
        let f = self.frames.last().expect("live frame");
        let token = self.setjmps.len() as i64;
        self.setjmps.push((self.frames.len(), f.proc, f.block, ip));
        self.set_reg(dst, token);
    }

    /// Returns the resume arena offset (the new `ip`); `ip` is the live
    /// frame's next micro-op after the `Longjmp`.
    #[cold]
    #[inline(never)]
    fn exec_longjmp<S: ProfSink + ?Sized>(
        &mut self,
        d: &DecodedProgram,
        token: Reg,
        ip: u32,
        sink: &mut S,
    ) -> Result<u32, ExecError> {
        self.frames.last_mut().expect("live frame").ip = ip;
        self.uop();
        let v = self.reg(token);
        let &(depth, proc, block, resume_ip) = self
            .setjmps
            .get(usize::try_from(v).map_err(|_| ExecError::BadJumpToken { value: v })?)
            .ok_or(ExecError::BadJumpToken { value: v })?;
        // A token is stale once its frame is gone — including
        // when the stack regrew and a *different* procedure's
        // frame now sits at that depth (resuming would run
        // one procedure's code against another's register
        // window).
        if depth > self.frames.len() || self.frames[depth - 1].proc != proc {
            return Err(ExecError::BadJumpToken { value: v });
        }
        if self.config.trace_blocks {
            // Every frame from the landing one up left its block
            // part-way; the landing block then resumes mid-block.
            for f in &self.frames[depth - 1..] {
                *self.suffix_adjust.entry((f.block, f.ip)).or_default() -= 1;
            }
            *self.suffix_adjust.entry((block, resume_ip)).or_default() += 1;
        }
        // Unwind costs a few cycles per frame popped.
        let popped = self.frames.len() - depth;
        self.uops_n(2 * popped as u32 + 2);
        self.frames.truncate(depth);
        sink.unwind(depth);
        let f = self.frames.last_mut().expect("setjmp frame alive");
        f.block = block;
        let (rb, fb, proc) = (f.reg_base as usize, f.freg_base as usize, f.proc);
        let pm = &d.procs[proc.index()];
        self.regs.truncate(rb + pm.num_regs as usize);
        self.fregs.truncate(fb + pm.num_fregs as usize);
        self.reg_base = rb;
        self.freg_base = fb;
        Ok(resume_ip)
    }

    /// The cooperative limit checkpoint, reached only when the hoisted
    /// `stop` bound trips — hard limits are disambiguated here, slow
    /// checks (deadline, cancellation, memory) run, and the next `stop`
    /// is returned.
    ///
    /// `ip` is the live frame's next micro-op; it is synced into the
    /// frame here, off the per-µop path, so a run stopped by a limit
    /// still tells the block-count projection where it stopped.
    #[cold]
    #[inline(never)]
    fn limit_checkpoint(
        &mut self,
        ip: u32,
        hard_stop: u64,
        check_interval: u64,
        deadline_at: Option<(Instant, u64)>,
    ) -> Result<u64, ExecError> {
        self.frames.last_mut().expect("live frame").ip = ip;
        if self.uops() >= hard_stop {
            if self.uops() >= self.config.max_instructions {
                return Err(ExecError::InstructionLimit);
            }
            if self.fault.abort_at_uops.is_some_and(|at| self.uops() >= at) {
                self.fault_log.aborted_at = Some(self.uops());
                return Err(ExecError::FaultAbort { uops: self.uops() });
            }
            let budget = self
                .limits
                .fuel
                .expect("below the hard stop only fuel remains");
            return Err(ExecError::LimitExceeded(LimitKind::Fuel { budget }));
        }
        // Cooperative checkpoint: only reached every
        // `check_interval` µops.
        if self
            .limits
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return Err(ExecError::LimitExceeded(LimitKind::Cancelled));
        }
        if let Some((at, deadline_ms)) = deadline_at {
            if Instant::now() >= at {
                return Err(ExecError::LimitExceeded(LimitKind::Deadline {
                    deadline_ms,
                }));
            }
        }
        if let Some(cap) = self.limits.max_resident_pages {
            let resident_pages = self.mem.resident_pages();
            if resident_pages > cap {
                return Err(ExecError::LimitExceeded(LimitKind::Memory {
                    resident_pages,
                    cap,
                }));
            }
        }
        Ok(hard_stop.min(self.uops().saturating_add(check_interval)))
    }

    // ----- the run loop ----------------------------------------------------

    /// Executes the program to completion, delivering profiling events to
    /// `sink`. Generic over the sink so concrete sinks monomorphize into
    /// the dispatch loop; `&mut dyn ProfSink` also works (`S: ?Sized`).
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run<S: ProfSink + ?Sized>(&mut self, sink: &mut S) -> Result<RunResult, ExecError> {
        self.run_outer(sink, None)
    }

    /// Like [`Machine::run`], but additionally interrupts the program
    /// every `interval` cycles and hands the sampler the current call
    /// stack (outermost first) — the process-sampling technique of
    /// Goldberg and Hall that the paper's Section 7.2 compares against.
    /// Walking an `n`-deep stack costs the sampled program `3n + 20`
    /// cycles per sample (handler entry plus one frame-chain load per
    /// activation).
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn run_sampled<S: ProfSink + ?Sized>(
        &mut self,
        sink: &mut S,
        interval: u64,
        on_sample: &mut dyn FnMut(&[ProcId]),
    ) -> Result<RunResult, ExecError> {
        assert!(interval > 0, "sampling interval must be positive");
        self.run_outer(sink, Some((interval, on_sample)))
    }

    fn run_outer<S: ProfSink + ?Sized>(
        &mut self,
        sink: &mut S,
        sampler: Option<Sampler<'_>>,
    ) -> Result<RunResult, ExecError> {
        // The arena is moved out for the duration of the run so the
        // dispatch loop can hold `&DecodedProgram` alongside `&mut self`.
        let d = std::mem::take(&mut self.decoded);
        // Sampling is compiled out of the unsampled loop (the common
        // case) rather than guarded per micro-op.
        let res = if sampler.is_some() {
            self.run_inner::<S, true>(&d, sink, sampler)
        } else {
            self.run_inner::<S, false>(&d, sink, None)
        };
        if res.is_err() && self.config.trace_blocks {
            // Every live frame stopped part-way through its block (the
            // error paths synced the top frame's `ip`).
            for f in &self.frames {
                *self.suffix_adjust.entry((f.block, f.ip)).or_default() -= 1;
            }
        }
        self.decoded = d;
        res
    }

    fn run_inner<S: ProfSink + ?Sized, const SAMPLED: bool>(
        &mut self,
        d: &DecodedProgram,
        sink: &mut S,
        mut sampler: Option<Sampler<'_>>,
    ) -> Result<RunResult, ExecError> {
        for seg in &self.program.data {
            self.mem.write_bytes(seg.addr, &seg.bytes);
        }
        if let Some((p0, p1)) = self.fault.preload_pics {
            self.set_pics([p0 as u64, p1 as u64]);
            self.fault_log.pics_preloaded = true;
        }
        // The instruction budget, the fault plan's abort point, and the
        // guest fuel budget collapse into one hoisted bound, so the loop
        // top pays a single compare; which limit fired is disambiguated
        // only when it trips. Limits needing wall-clock or memory state
        // (deadline / cancellation / resident cap) are cooperative: the
        // running `stop` is clamped to the next check interval so the
        // slow checks run off the per-µop path entirely.
        let hard_stop = self
            .config
            .max_instructions
            .min(self.fault.abort_at_uops.unwrap_or(u64::MAX))
            .min(self.limits.fuel.unwrap_or(u64::MAX));
        let check_interval = if self.limits.needs_periodic_checks() {
            self.limits.check_interval.max(1)
        } else {
            u64::MAX
        };
        let deadline_at = self
            .limits
            .deadline
            .map(|d| (Instant::now() + d, d.as_millis() as u64));
        let mut stop = hard_stop.min(self.uops().saturating_add(check_interval));
        // The live frame's instruction pointer stays in this local; the
        // frame's `ip` field is written only at call sites (the resume
        // point) and read back on return/unwind.
        let mut ip = self.push_frame(d, self.program.entry(), &[], None)?;
        let mut next_sample = sampler.as_ref().map(|(iv, _)| *iv).unwrap_or(u64::MAX);

        // The program starts with one live frame and only `Ret` can
        // retire the last one, so the loop exits from the `Ret` arm
        // rather than re-testing the frame stack every micro-op.
        'run: loop {
            if self.uops() >= stop {
                stop = self.limit_checkpoint(ip, hard_stop, check_interval, deadline_at)?;
                continue 'run;
            }
            if SAMPLED && self.now() >= next_sample {
                let (interval, on_sample) = sampler.as_mut().expect("sampling enabled");
                let stack: Vec<ProcId> = self.frames.iter().map(|f| f.proc).collect();
                on_sample(&stack);
                next_sample = self.now() + *interval;
                // The sample perturbs the program: handler entry plus a
                // stack walk.
                let cost = 20 + 3 * stack.len() as u64;
                self.tick(cost);
            }
            let cur = ip as usize;
            ip += 1;
            debug_assert!(cur < d.ops.len(), "ip escaped the micro-op arena");
            // SAFETY: `ip` only ever holds a block's `first_op` (decode
            // validated every transfer target, and `push_frame`/`goto`
            // index `d.blocks` checked) plus sequential increments, and
            // every block's last micro-op is a terminator that reassigns
            // `ip` — so `cur` cannot walk off the arena.
            match unsafe { d.ops.get_unchecked(cur) } {
                MicroOp::Mov { dst, src } => {
                    self.uop();
                    let v = self.value(*src);
                    self.set_reg(*dst, v);
                }
                MicroOp::Bin { op, dst, a, b } => {
                    self.uop();
                    let x = self.reg(*a);
                    let y = self.value(*b);
                    self.set_reg(*dst, bin_eval(*op, x, y));
                }
                // ----- superinstructions: each replays its constituents'
                // exact event sequence (same charges, same order), so the
                // only difference from the unfused arena is one dispatch
                // instead of two. The branch forms re-derive the predictor
                // site key from the live frame's block — `goto` keeps
                // `frame.block` current, and within a block it can't
                // change before the terminator.
                MicroOp::FusedBinBranch {
                    op,
                    dst,
                    a,
                    b,
                    taken,
                    not_taken,
                } => {
                    // Nothing between the halves reads the clock, so one
                    // batched charge is identical to two single ones.
                    self.uops_n(2);
                    let v = bin_eval(*op, self.reg(*a), self.reg(*b));
                    self.set_reg(*dst, v);
                    self.count(HwEvent::Branches, 1);
                    let is_taken = v != 0;
                    let block = self.frames.last().expect("live frame").block;
                    let site_key = d.blocks[block as usize].addr;
                    if !self.bp.predict_and_update(site_key, is_taken) {
                        self.count(HwEvent::BranchMispredict, 1);
                        self.tick(self.config.mispredict_penalty);
                    }
                    let t = if is_taken { *taken } else { *not_taken };
                    ip = self.goto(d, t);
                }
                MicroOp::FusedBinIBranch {
                    op,
                    dst,
                    a,
                    imm,
                    taken,
                    not_taken,
                } => {
                    self.uops_n(2);
                    let v = bin_eval(*op, self.reg(*a), *imm);
                    self.set_reg(*dst, v);
                    self.count(HwEvent::Branches, 1);
                    let is_taken = v != 0;
                    let block = self.frames.last().expect("live frame").block;
                    let site_key = d.blocks[block as usize].addr;
                    if !self.bp.predict_and_update(site_key, is_taken) {
                        self.count(HwEvent::BranchMispredict, 1);
                        self.tick(self.config.mispredict_penalty);
                    }
                    let t = if is_taken { *taken } else { *not_taken };
                    ip = self.goto(d, t);
                }
                MicroOp::FusedBinJump {
                    op,
                    dst,
                    a,
                    b,
                    target,
                } => {
                    self.uops_n(2);
                    let v = bin_eval(*op, self.reg(*a), self.reg(*b));
                    self.set_reg(*dst, v);
                    ip = self.goto(d, *target);
                }
                MicroOp::FusedBinIJump {
                    op,
                    dst,
                    a,
                    imm,
                    target,
                } => {
                    self.uops_n(2);
                    let v = bin_eval(*op, self.reg(*a), *imm);
                    self.set_reg(*dst, v);
                    ip = self.goto(d, *target);
                }
                MicroOp::FusedLoadBin {
                    ldst,
                    base,
                    offset,
                    op,
                    dst,
                    a,
                    b,
                } => {
                    self.uops_n(2);
                    let addr = (self.reg(*base) as u64).wrapping_add(*offset);
                    self.dread(addr);
                    let v = self.mem.read_u64(addr) as i64;
                    self.set_reg(*ldst, v);
                    // The Bin half reads its operands *after* the load's
                    // write-back, preserving the dependent forms.
                    let x = self.reg(*a);
                    let y = self.reg(*b);
                    self.set_reg(*dst, bin_eval(*op, x, y));
                }
                MicroOp::FusedFBinFBin {
                    op1,
                    dst1,
                    a1,
                    b1,
                    op2,
                    dst2,
                    a2,
                    b2,
                } => {
                    // `fp_issue` reads the current cycle count, so each
                    // half issues at exactly the cycle it would unfused.
                    self.uop();
                    let latency = match op1 {
                        FBinOp::Div => self.config.fdiv_latency,
                        _ => self.config.fp_latency,
                    };
                    self.fp_issue(latency);
                    let x = self.freg(*a1);
                    let y = self.freg(*b1);
                    let v = match op1 {
                        FBinOp::Add => x + y,
                        FBinOp::Sub => x - y,
                        FBinOp::Mul => x * y,
                        FBinOp::Div => x / y,
                    };
                    self.set_freg(*dst1, v);
                    self.uop();
                    let latency = match op2 {
                        FBinOp::Div => self.config.fdiv_latency,
                        _ => self.config.fp_latency,
                    };
                    self.fp_issue(latency);
                    let x = self.freg(*a2);
                    let y = self.freg(*b2);
                    let v = match op2 {
                        FBinOp::Add => x + y,
                        FBinOp::Sub => x - y,
                        FBinOp::Mul => x * y,
                        FBinOp::Div => x / y,
                    };
                    self.set_freg(*dst2, v);
                }
                MicroOp::FusedBinIBinI {
                    op1,
                    dst1,
                    a1,
                    imm1,
                    op2,
                    dst2,
                    a2,
                    imm2,
                } => {
                    // Counter updates are wrapping adds and nothing here
                    // reads the clock, so one batched charge is identical
                    // to two single ones (`uops_n`'s contract).
                    self.uops_n(2);
                    let x = self.reg(*a1);
                    self.set_reg(*dst1, bin_eval(*op1, x, i64::from(*imm1)));
                    // The second op reads after the first's write-back,
                    // so `a2 == dst1` chains behave exactly as unfused.
                    let x = self.reg(*a2);
                    self.set_reg(*dst2, bin_eval(*op2, x, i64::from(*imm2)));
                }
                MicroOp::FusedBinRBinI {
                    op1,
                    dst1,
                    a1,
                    b1,
                    op2,
                    dst2,
                    a2,
                    imm2,
                } => {
                    self.uops_n(2);
                    let v = bin_eval(*op1, self.reg(*a1), self.reg(*b1));
                    self.set_reg(*dst1, v);
                    let x = self.reg(*a2);
                    self.set_reg(*dst2, bin_eval(*op2, x, i64::from(*imm2)));
                }
                MicroOp::FusedBinIBinR {
                    op1,
                    dst1,
                    a1,
                    imm1,
                    op2,
                    dst2,
                    a2,
                    b2,
                } => {
                    self.uops_n(2);
                    let x = self.reg(*a1);
                    self.set_reg(*dst1, bin_eval(*op1, x, i64::from(*imm1)));
                    let v = bin_eval(*op2, self.reg(*a2), self.reg(*b2));
                    self.set_reg(*dst2, v);
                }
                MicroOp::FusedFBin3 {
                    op1,
                    dst1,
                    a1,
                    b1,
                    op2,
                    dst2,
                    a2,
                    b2,
                    op3,
                    dst3,
                    a3,
                    b3,
                } => {
                    // `fp_issue` reads the clock, so each link charges its
                    // own micro-op before issuing — no batching here.
                    for (op, dst, a, b) in [
                        (op1, dst1, a1, b1),
                        (op2, dst2, a2, b2),
                        (op3, dst3, a3, b3),
                    ] {
                        self.uop();
                        let latency = match op {
                            FBinOp::Div => self.config.fdiv_latency,
                            _ => self.config.fp_latency,
                        };
                        self.fp_issue(latency);
                        let x = self.freg(*a);
                        let y = self.freg(*b);
                        let v = match op {
                            FBinOp::Add => x + y,
                            FBinOp::Sub => x - y,
                            FBinOp::Mul => x * y,
                            FBinOp::Div => x / y,
                        };
                        self.set_freg(*dst, v);
                    }
                }
                MicroOp::FusedFLoadFBin {
                    ldst,
                    base,
                    offset,
                    op,
                    dst,
                    a,
                    b,
                } => {
                    // The only clock read (`fp_issue`) happens after both
                    // micro-ops complete unfused, so batching is exact.
                    self.uops_n(2);
                    let addr = (self.reg(*base) as u64).wrapping_add(u64::from(*offset));
                    self.dread(addr);
                    let v = self.mem.read_f64(addr);
                    self.set_freg(*ldst, v);
                    let latency = match op {
                        FBinOp::Div => self.config.fdiv_latency,
                        _ => self.config.fp_latency,
                    };
                    self.fp_issue(latency);
                    let x = self.freg(*a);
                    let y = self.freg(*b);
                    let v = match op {
                        FBinOp::Add => x + y,
                        FBinOp::Sub => x - y,
                        FBinOp::Mul => x * y,
                        FBinOp::Div => x / y,
                    };
                    self.set_freg(*dst, v);
                }
                MicroOp::FusedFBinFLoad {
                    op,
                    dst,
                    a,
                    b,
                    ldst,
                    base,
                    offset,
                } => {
                    // `fp_issue` reads the clock between the halves, so
                    // each charges separately.
                    self.uop();
                    let latency = match op {
                        FBinOp::Div => self.config.fdiv_latency,
                        _ => self.config.fp_latency,
                    };
                    self.fp_issue(latency);
                    let x = self.freg(*a);
                    let y = self.freg(*b);
                    let v = match op {
                        FBinOp::Add => x + y,
                        FBinOp::Sub => x - y,
                        FBinOp::Mul => x * y,
                        FBinOp::Div => x / y,
                    };
                    self.set_freg(*dst, v);
                    self.uop();
                    let addr = (self.reg(*base) as u64).wrapping_add(u64::from(*offset));
                    self.dread(addr);
                    let v = self.mem.read_f64(addr);
                    self.set_freg(*ldst, v);
                }
                MicroOp::FusedBinILoad {
                    op,
                    dst,
                    a,
                    imm,
                    ldst,
                    base,
                    offset,
                } => {
                    self.uops_n(2);
                    let x = self.reg(*a);
                    self.set_reg(*dst, bin_eval(*op, x, i64::from(*imm)));
                    // The load reads `base` after the bin's write-back —
                    // the `base == dst` index-then-load chain is exact.
                    let addr = (self.reg(*base) as u64).wrapping_add(u64::from(*offset));
                    self.dread(addr);
                    let v = self.mem.read_u64(addr) as i64;
                    self.set_reg(*ldst, v);
                }
                MicroOp::FusedBinStoreR {
                    op,
                    dst,
                    a,
                    b,
                    src,
                    base,
                    offset,
                } => {
                    // `dwrite` reads the clock, but only after both
                    // micro-ops would have charged unfused — batch.
                    self.uops_n(2);
                    let v = bin_eval(*op, self.reg(*a), self.reg(*b));
                    self.set_reg(*dst, v);
                    let addr = (self.reg(*base) as u64).wrapping_add(u64::from(*offset));
                    let v = self.reg(*src);
                    self.dwrite(addr);
                    self.mem.write_u64(addr, v as u64);
                }
                MicroOp::FusedStoreRJump {
                    src,
                    base,
                    offset,
                    target,
                } => {
                    // `dwrite` reads the clock *between* the halves here
                    // (store first), so each charges separately.
                    self.uop();
                    let addr = (self.reg(*base) as u64).wrapping_add(u64::from(*offset));
                    let v = self.reg(*src);
                    self.dwrite(addr);
                    self.mem.write_u64(addr, v as u64);
                    self.uop();
                    ip = self.goto(d, *target);
                }
                MicroOp::FusedProfProf { p1, p2 } => {
                    // Profiling semantics replay strictly in order; each
                    // pseudo-op does its own (clock-reading) accounting.
                    let op = d.prof_ops[*p1 as usize];
                    self.exec_prof(op, sink);
                    let op = d.prof_ops[*p2 as usize];
                    self.exec_prof(op, sink);
                }
                MicroOp::FusedProfJump { p, target } => {
                    let op = d.prof_ops[*p as usize];
                    self.exec_prof(op, sink);
                    self.uop();
                    ip = self.goto(d, *target);
                }
                MicroOp::FusedBinIProf { op, dst, a, imm, p } => {
                    self.uop();
                    let x = self.reg(*a);
                    self.set_reg(*dst, bin_eval(*op, x, i64::from(*imm)));
                    let pop = d.prof_ops[*p as usize];
                    self.exec_prof(pop, sink);
                }
                MicroOp::Load { dst, base, offset } => {
                    self.uop();
                    let addr = (self.reg(*base) as u64).wrapping_add(*offset);
                    self.dread(addr);
                    let v = self.mem.read_u64(addr) as i64;
                    self.set_reg(*dst, v);
                }
                MicroOp::StoreR { src, base, offset } => {
                    self.uop();
                    let addr = (self.reg(*base) as u64).wrapping_add(*offset);
                    let v = self.reg(*src);
                    self.dwrite(addr);
                    self.mem.write_u64(addr, v as u64);
                }
                MicroOp::StoreI { imm, base, offset } => {
                    self.uop();
                    let addr = (self.reg(*base) as u64).wrapping_add(*offset);
                    self.dwrite(addr);
                    self.mem.write_u64(addr, *imm as u64);
                }
                MicroOp::FConst { dst, value } => {
                    self.uop();
                    self.set_freg(*dst, *value);
                }
                MicroOp::FBin { op, dst, a, b } => {
                    self.uop();
                    let latency = match op {
                        FBinOp::Div => self.config.fdiv_latency,
                        _ => self.config.fp_latency,
                    };
                    self.fp_issue(latency);
                    let x = self.freg(*a);
                    let y = self.freg(*b);
                    let v = match op {
                        FBinOp::Add => x + y,
                        FBinOp::Sub => x - y,
                        FBinOp::Mul => x * y,
                        FBinOp::Div => x / y,
                    };
                    self.set_freg(*dst, v);
                }
                MicroOp::FLoad { dst, base, offset } => {
                    self.uop();
                    let addr = (self.reg(*base) as u64).wrapping_add(*offset);
                    self.dread(addr);
                    let v = self.mem.read_f64(addr);
                    self.set_freg(*dst, v);
                }
                MicroOp::FStore { src, base, offset } => {
                    self.uop();
                    let addr = (self.reg(*base) as u64).wrapping_add(*offset);
                    let v = self.freg(*src);
                    self.dwrite(addr);
                    self.mem.write_f64(addr, v);
                }
                MicroOp::FToI { dst, src } => {
                    self.uop();
                    let v = self.freg(*src);
                    self.set_reg(*dst, v as i64);
                }
                MicroOp::IToF { dst, src } => {
                    self.uop();
                    let v = self.reg(*src);
                    self.set_freg(*dst, v as f64);
                }
                MicroOp::Call { callee, args, ret } => {
                    self.uop();
                    self.count(HwEvent::Calls, 1);
                    self.frames.last_mut().expect("live frame").ip = ip;
                    ip = self.call_with(d, *callee, d.args(*args), *ret)?;
                }
                MicroOp::CallIndirect {
                    target,
                    args,
                    ret,
                    ic,
                } => {
                    self.uop();
                    self.count(HwEvent::Calls, 1);
                    let v = self.reg(*target);
                    let key = (v as u64).wrapping_add(1);
                    debug_assert!((*ic as usize) < self.icall_ic.len());
                    // SAFETY: decode numbered indirect call sites densely
                    // and the cache was sized to `num_icall_sites`.
                    let slot = unsafe { self.icall_ic.get_unchecked_mut(*ic as usize) };
                    if *slot == key {
                        // Monomorphic hit: `key` was range-checked when it
                        // was installed, so the target is valid.
                        sink.icall_cache(true);
                    } else {
                        if v < 0 || v as usize >= d.procs.len() {
                            // Error paths sync the live frame's `ip` so the
                            // block-count projection knows where it stopped.
                            self.frames.last_mut().expect("live frame").ip = ip;
                            return Err(ExecError::BadIndirectTarget { value: v });
                        }
                        *slot = key;
                        sink.icall_cache(false);
                    }
                    self.frames.last_mut().expect("live frame").ip = ip;
                    ip = self.call_with(d, ProcId(v as u32), d.args(*args), *ret)?;
                }
                // The counter-control and non-local-return ops sit in the
                // cold tail of the meta-profile (every one of them is
                // below 0.1% of dynamic dispatches); their handlers are
                // outlined so the hot loop's code stays compact.
                MicroOp::SetPcr { pic0, pic1 } => self.exec_setpcr(*pic0, *pic1),
                MicroOp::RdPic { dst } => self.exec_rdpic(*dst),
                MicroOp::WrPic { src } => self.exec_wrpic(*src),
                MicroOp::Setjmp { dst } => self.exec_setjmp(*dst, ip),
                MicroOp::Longjmp { token } => ip = self.exec_longjmp(d, *token, ip, sink)?,
                MicroOp::Prof(i) => {
                    let op = d.prof_ops[*i as usize];
                    self.exec_prof(op, sink);
                }
                MicroOp::Nop => self.uop(),
                MicroOp::Jump { target } => {
                    self.uop();
                    ip = self.goto(d, *target);
                }
                MicroOp::Branch {
                    cond,
                    taken,
                    not_taken,
                    site_key,
                } => {
                    self.uop();
                    self.count(HwEvent::Branches, 1);
                    let is_taken = self.reg(*cond) != 0;
                    if !self.bp.predict_and_update(*site_key, is_taken) {
                        self.count(HwEvent::BranchMispredict, 1);
                        self.tick(self.config.mispredict_penalty);
                    }
                    let t = if is_taken { *taken } else { *not_taken };
                    ip = self.goto(d, t);
                }
                MicroOp::Switch {
                    sel,
                    targets,
                    default,
                    site_key,
                } => {
                    self.uop();
                    self.count(HwEvent::Branches, 1);
                    let v = self.reg(*sel);
                    let targets = d.targets(*targets);
                    let t = if v >= 0 && (v as usize) < targets.len() {
                        targets[v as usize]
                    } else {
                        *default
                    };
                    // The target predictor is keyed on the original
                    // within-procedure block id, as the tree interpreter was.
                    let orig = d.blocks[t as usize].orig;
                    if !self.tp.predict_and_update(*site_key, orig.0 as u64) {
                        self.count(HwEvent::BranchMispredict, 1);
                        self.tick(self.config.mispredict_penalty);
                    }
                    ip = self.goto(d, t);
                }
                MicroOp::Ret => {
                    self.uop();
                    let frame = self.frames.pop().expect("loop exits on last frame");
                    let rb = frame.reg_base as usize;
                    let ret_val = if self.regs.len() > rb {
                        self.regs[rb]
                    } else {
                        0
                    };
                    self.regs.truncate(rb);
                    self.fregs.truncate(frame.freg_base as usize);
                    if let Some(caller) = self.frames.last() {
                        ip = caller.ip;
                        self.reg_base = caller.reg_base as usize;
                        self.freg_base = caller.freg_base as usize;
                        let caller_block = caller.block;
                        if let Some(r) = frame.ret_to {
                            self.set_reg(r, ret_val);
                        }
                        // Returning resumes the caller mid-block; its lines
                        // are usually resident, but model the fetch of the
                        // resume line.
                        let addr = d.blocks[caller_block as usize].addr;
                        if !self.icache.access(addr) {
                            self.count(HwEvent::IcMiss, 1);
                            self.tick(self.config.icache_miss_penalty);
                        }
                    } else {
                        self.reg_base = 0;
                        self.freg_base = 0;
                        break 'run;
                    }
                }
            }
        }

        Ok(self.partial_result())
    }

    /// The metrics accumulated so far. After [`Machine::run`] returns an
    /// [`ExecError`], this is the ground truth *up to the fault* — the
    /// partial-result recovery path reads it instead of discarding the
    /// run.
    pub fn partial_result(&self) -> RunResult {
        let pics = self.pics_now();
        RunResult {
            metrics: self.metrics,
            uops: self.uops(),
            resident_pages: self.mem.resident_pages(),
            code_bytes: self.layout.total_bytes(),
            pics: (pics[0] as u32, pics[1] as u32),
            fault_log: self.fault_log,
            counter_note: (self.pic_wraps > 0).then_some(CounterNote::WrapReconciled {
                count: self.pic_wraps,
            }),
        }
    }

    // ----- profiling ops ---------------------------------------------------

    fn table_entry_addr(&self, table: PathTable, idx: u64, stride: u64) -> u64 {
        match table.storage {
            CounterStorage::Array => table.base + idx * stride,
            CounterStorage::Hashed => table.base + (idx % 1024) * stride,
        }
    }

    fn hashed_extra(&mut self, table: PathTable) {
        if table.storage == CounterStorage::Hashed {
            self.uops_n(4);
        }
    }

    fn path_sum(&self, reg: Reg) -> u64 {
        let v = self.reg(reg);
        debug_assert!(v >= 0, "negative path sum {v}");
        v as u64
    }

    /// A profiling-sequence read of `(%pic0, %pic1)`, returned at shadow
    /// (64-bit) width and subject to the fault plan: a
    /// [`PicClobber`](crate::PicClobber) lands immediately before the
    /// read it targets, and a [`ReadSkew`](crate::ReadSkew)-perturbed
    /// read observes both counters slightly ahead, as if the read had
    /// been reordered past nearby counted micro-ops. Every read also
    /// reconciles the architectural 32-bit registers against the shadow,
    /// accumulating any `2^32` boundary crossings into the run's
    /// [`CounterNote::WrapReconciled`] count.
    fn read_pics(&mut self) -> (u64, u64) {
        self.counter_reads += 1;
        if let Some(c) = self.fault.clobber_pics {
            if c.at_read > 0 && c.at_read == self.counter_reads {
                self.set_pics([c.values.0 as u64, c.values.1 as u64]);
                self.fault_log.pics_clobbered = true;
            }
        }
        let now = self.pics_now();
        for (&wide, anchored) in now.iter().zip(self.pic_epoch.iter_mut()) {
            let epoch = wide >> 32;
            if epoch > *anchored {
                self.pic_wraps += epoch - *anchored;
                *anchored = epoch;
            }
        }
        let mut p = (now[0], now[1]);
        if let Some(skew) = self.fault.read_skew {
            if skew.period > 0 && self.counter_reads.is_multiple_of(skew.period) {
                p.0 = p.0.wrapping_add(skew.magnitude as u64);
                p.1 = p.1.wrapping_add(skew.magnitude as u64);
                self.fault_log.skewed_reads += 1;
            }
        }
        p
    }

    fn exec_prof<S: ProfSink + ?Sized>(&mut self, op: ProfOp, sink: &mut S) {
        // Accesses to %pic serialize the pipeline (the required
        // read-after-write ordering of Section 3.1); charge a fixed
        // synchronization cost per counter-touching sequence.
        if op.uses_counters() {
            self.tick(3);
        }
        match op {
            ProfOp::Spill => {
                self.uops_n(2);
                let fa = self.frame_addr();
                self.dwrite(fa + 24);
                self.dread(fa + 24);
            }
            ProfOp::PicZero => {
                self.uops_n(2);
                self.set_pics([0, 0]);
            }
            ProfOp::PicSave => {
                let pics = self.read_pics();
                self.uops_n(2);
                let addr = self.frame_addr();
                self.dwrite(addr);
                self.frames.last_mut().expect("live frame").saved_pics = pics;
            }
            ProfOp::PicRestore => {
                self.uops_n(3);
                let addr = self.frame_addr();
                self.dread(addr);
                let saved = self.frames.last().expect("live frame").saved_pics;
                self.set_pics([saved.0, saved.1]);
            }
            ProfOp::EdgeCount { table, index } => {
                self.uops_n(3);
                let addr = self.table_entry_addr(table, index as u64, 8);
                self.dread(addr);
                self.dwrite(addr);
                sink.path_event(table, index as u64, None);
            }
            ProfOp::PathCount { table, reg } => {
                let sum = self.path_sum(reg);
                self.uops_n(3);
                self.hashed_extra(table);
                let addr = self.table_entry_addr(table, sum, 8);
                self.dread(addr);
                self.dwrite(addr);
                sink.path_event(table, sum, None);
            }
            ProfOp::PathCountBackedge {
                table,
                reg,
                end,
                start,
            } => {
                let sum = (self.reg(reg).wrapping_add(end)) as u64;
                self.uops_n(4);
                self.hashed_extra(table);
                let addr = self.table_entry_addr(table, sum, 8);
                self.dread(addr);
                self.dwrite(addr);
                self.set_reg(reg, start);
                sink.path_event(table, sum, None);
            }
            ProfOp::PathMetrics { table, reg } => {
                // Capture the counters before the instrumentation's own
                // micro-ops execute (the paper's read-at-end-of-path).
                let pics = self.read_pics();
                let sum = self.path_sum(reg);
                self.path_metrics_cost(table, sum);
                sink.path_event(table, sum, Some(pics));
            }
            ProfOp::PathMetricsBackedge {
                table,
                reg,
                end,
                start,
            } => {
                let pics = self.read_pics();
                let sum = (self.reg(reg).wrapping_add(end)) as u64;
                self.path_metrics_cost(table, sum);
                // r = START and re-zero for the next path.
                self.uops_n(3);
                self.set_reg(reg, start);
                self.set_pics([0, 0]);
                sink.path_event(table, sum, Some(pics));
            }
            ProfOp::CctEnter { proc } => {
                let t = sink.cct_enter(proc);
                // Fast path: load slot, mask tag, compare, update lCRP,
                // push old gCSP and current record.
                self.uops_n(8 + t.extra_uops);
                if t.slot_addr != 0 {
                    self.dread(t.slot_addr);
                }
                let fa = self.frame_addr();
                self.dwrite(fa + 8);
                if t.slot_written && t.slot_addr != 0 {
                    self.dwrite(t.slot_addr);
                }
                for k in 0..t.record_writes {
                    self.dwrite(t.record_addr + 8 * k as u64);
                }
            }
            ProfOp::CctCall { site, path_reg } => {
                self.uops_n(2);
                let prefix = path_reg.map(|r| self.path_sum(r));
                sink.cct_call(site, prefix);
            }
            ProfOp::CctExit => {
                self.uops_n(2);
                let fa = self.frame_addr();
                self.dread(fa + 8);
                sink.cct_exit();
            }
            ProfOp::CctMetricEnter => {
                let pics = self.read_pics();
                // Read both counters, extract halves, store the snapshot.
                self.uops_n(4);
                let fa = self.frame_addr();
                self.dwrite(fa + 16);
                sink.cct_metric_enter(pics);
            }
            ProfOp::CctMetricExit => {
                let pics = self.read_pics();
                self.uops_n(10);
                let fa = self.frame_addr();
                self.dread(fa + 16);
                let addr = sink.cct_metric_exit(pics);
                if addr != 0 {
                    self.dread(addr);
                    self.dwrite(addr);
                    self.dread(addr + 8);
                    self.dwrite(addr + 8);
                }
            }
            ProfOp::CctMetricTick => {
                let pics = self.read_pics();
                self.uops_n(11);
                let fa = self.frame_addr();
                self.dread(fa + 16);
                self.dwrite(fa + 16);
                let addr = sink.cct_metric_tick(pics);
                if addr != 0 {
                    self.dread(addr);
                    self.dwrite(addr);
                    self.dread(addr + 8);
                    self.dwrite(addr + 8);
                }
            }
            ProfOp::CctPathCount { reg } => {
                let sum = self.path_sum(reg);
                self.uops_n(8);
                let addr = sink.cct_path_event(sum, None);
                if addr != 0 {
                    self.dread(addr);
                    self.dwrite(addr);
                }
            }
            ProfOp::CctPathCountBackedge { reg, end, start } => {
                let sum = (self.reg(reg).wrapping_add(end)) as u64;
                self.uops_n(9);
                let addr = sink.cct_path_event(sum, None);
                if addr != 0 {
                    self.dread(addr);
                    self.dwrite(addr);
                }
                self.set_reg(reg, start);
            }
            ProfOp::CctPathMetrics { reg } => {
                let pics = self.read_pics();
                let sum = self.path_sum(reg);
                self.uops_n(15);
                let addr = sink.cct_path_event(sum, Some(pics));
                if addr != 0 {
                    for k in 0..3 {
                        self.dread(addr + 8 * k);
                        self.dwrite(addr + 8 * k);
                    }
                }
            }
            ProfOp::CctPathMetricsBackedge { reg, end, start } => {
                let pics = self.read_pics();
                let sum = (self.reg(reg).wrapping_add(end)) as u64;
                self.uops_n(17);
                let addr = sink.cct_path_event(sum, Some(pics));
                if addr != 0 {
                    for k in 0..3 {
                        self.dread(addr + 8 * k);
                        self.dwrite(addr + 8 * k);
                    }
                }
                self.set_reg(reg, start);
                self.set_pics([0, 0]);
            }
        }
    }

    /// The paper's "thirteen or more instructions": rdpic + extraction +
    /// three load/add/store triples over the 24-byte entry.
    fn path_metrics_cost(&mut self, table: PathTable, sum: u64) {
        self.uops_n(7);
        self.hashed_extra(table);
        let addr = self.table_entry_addr(table, sum, 24);
        for k in 0..3 {
            self.dread(addr + 8 * k);
            self.uop();
            self.dwrite(addr + 8 * k);
            self.uop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use pp_ir::build::ProgramBuilder;
    use pp_ir::Operand;

    fn run_program(prog: &Program) -> RunResult {
        let mut m = Machine::new(prog, MachineConfig::default());
        m.run(&mut NullSink).expect("run")
    }

    #[test]
    fn arithmetic_and_result() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let r = f.new_reg();
        let base = f.new_reg();
        f.block(e)
            .mov(r, 20i64)
            .add(r, r, 22i64)
            .mov(base, 0x1000i64)
            .store(Operand::Reg(r), base, 0)
            .ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.run(&mut NullSink).unwrap();
        assert_eq!(m.memory().read_u64(0x1000), 42);
    }

    #[test]
    fn loop_executes_expected_instructions() {
        // for i in 0..10 { } : header br + body
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let i = f.new_reg();
        let c = f.new_reg();
        f.block(e).mov(i, 0i64).jump(h);
        f.block(h).cmp_lt(c, i, 10i64).branch(c, body, x);
        f.block(body).add(i, i, 1i64).jump(h);
        f.block(x).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let res = run_program(&prog);
        // mov + 11*(cmp+br) + 10*(add+jmp) + ret + entry jump
        assert_eq!(res.metrics.get(HwEvent::Branches), 11);
        assert_eq!(res.metrics.get(HwEvent::Insts), 1 + 1 + 22 + 20 + 1);
    }

    #[test]
    fn call_and_return_value() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("double");
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let r = f.new_reg();
        let base = f.new_reg();
        f.block(e)
            .call(callee, vec![Operand::Imm(21)], Some(r))
            .mov(base, 0x2000i64)
            .store(Operand::Reg(r), base, 0)
            .ret();
        let main = f.finish();
        let mut g = pb.procedure_for(callee);
        let e = g.entry_block();
        g.reserve_regs(1);
        g.block(e).add(Reg(0), Reg(0), Operand::Reg(Reg(0))).ret();
        g.finish();
        let prog = pb.finish(main);
        let mut m = Machine::new(&prog, MachineConfig::default());
        let res = m.run(&mut NullSink).unwrap();
        assert_eq!(m.mem.read_u64(0x2000), 42);
        assert_eq!(res.metrics.get(HwEvent::Calls), 1);
    }

    #[test]
    fn indirect_call_through_table() {
        let mut pb = ProgramBuilder::new();
        let f1 = pb.declare("one");
        let f2 = pb.declare("two");
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let base = f.new_reg();
        let fp = f.new_reg();
        let r = f.new_reg();
        let out = f.new_reg();
        f.block(e)
            .mov(base, 0x3000i64)
            .load(fp, base, 8) // second table entry -> "two"
            .icall(fp, vec![], Some(r))
            .mov(out, 0x4000i64)
            .store(Operand::Reg(r), out, 0)
            .ret();
        let main = f.finish();
        let mut p1 = pb.procedure_for(f1);
        let e1 = p1.entry_block();
        let r0 = Reg(0);
        p1.reserve_regs(1);
        p1.block(e1).mov(r0, 1i64).ret();
        p1.finish();
        let mut p2 = pb.procedure_for(f2);
        let e2 = p2.entry_block();
        p2.reserve_regs(1);
        p2.block(e2).mov(r0, 2i64).ret();
        p2.finish();
        pb.data_words(0x3000, &[f1.0 as u64, f2.0 as u64]);
        let prog = pb.finish(main);
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.run(&mut NullSink).unwrap();
        assert_eq!(m.mem.read_u64(0x4000), 2);
    }

    #[test]
    fn bad_indirect_target_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let fp = f.new_reg();
        f.block(e).mov(fp, 99i64).icall(fp, vec![], None).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let mut m = Machine::new(&prog, MachineConfig::default());
        let err = m.run(&mut NullSink).unwrap_err();
        assert_eq!(err, ExecError::BadIndirectTarget { value: 99 });
    }

    #[test]
    fn infinite_recursion_overflows() {
        let mut pb = ProgramBuilder::new();
        let this = pb.declare("rec");
        let mut f = pb.procedure_for(this);
        let e = f.entry_block();
        f.block(e).call(this, vec![], None).ret();
        f.finish();
        let prog = pb.finish(this);
        let mut m = Machine::new(&prog, MachineConfig::default());
        let err = m.run(&mut NullSink).unwrap_err();
        assert!(matches!(err, ExecError::StackOverflow { .. }));
    }

    #[test]
    fn cache_misses_counted_for_strided_walk() {
        // Walk 64 KB with 8-byte loads: 16 KB cache can't hold it; every
        // new 32-byte line misses => 64KB/32B = 2048 read misses on first
        // pass.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let i = f.new_reg();
        let c = f.new_reg();
        let a = f.new_reg();
        let v = f.new_reg();
        f.block(e).mov(i, 0i64).jump(h);
        f.block(h).cmp_lt(c, i, 8192i64).branch(c, body, x);
        f.block(body)
            .mul(a, i, 8i64)
            .add(a, a, 0x10_0000i64)
            .load(v, a, 0)
            .add(i, i, 1i64)
            .jump(h);
        f.block(x).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let res = run_program(&prog);
        assert_eq!(res.metrics.get(HwEvent::DcRead), 8192);
        assert_eq!(res.metrics.get(HwEvent::DcReadMiss), 2048);
    }

    #[test]
    fn conflicting_lines_thrash_direct_mapped_cache() {
        // Alternate two addresses 16 KB apart: all conflict misses.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let i = f.new_reg();
        let c = f.new_reg();
        let a = f.new_reg();
        let v = f.new_reg();
        f.block(e).mov(i, 0i64).jump(h);
        f.block(h).cmp_lt(c, i, 100i64).branch(c, body, x);
        f.block(body)
            .mov(a, 0x10_0000i64)
            .load(v, a, 0)
            .mov(a, 0x10_4000i64) // +16 KB: same D-cache line index
            .load(v, a, 0)
            .add(i, i, 1i64)
            .jump(h);
        f.block(x).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let res = run_program(&prog);
        assert_eq!(res.metrics.get(HwEvent::DcReadMiss), 200);
    }

    #[test]
    fn store_buffer_stalls_under_store_burst() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let base = f.new_reg();
        let mut bb = f.block(e);
        bb.mov(base, 0x8000i64);
        for k in 0..64 {
            bb.store(Operand::Imm(k), base, k * 8);
        }
        bb.ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let res = run_program(&prog);
        assert!(res.metrics.get(HwEvent::StoreBufStall) > 0);
        assert_eq!(res.metrics.get(HwEvent::Stores), 64);
    }

    #[test]
    fn fp_stalls_on_dependent_chain() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let a = f.new_freg();
        let b = f.new_freg();
        let mut bb = f.block(e);
        bb.fconst(a, 1.5).fconst(b, 2.5);
        for _ in 0..10 {
            bb.fbin(pp_ir::instr::FBinOp::Mul, a, a, b);
        }
        bb.ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let res = run_program(&prog);
        assert!(res.metrics.get(HwEvent::FpStall) > 0);
        assert_eq!(res.metrics.get(HwEvent::FpOps), 10);
    }

    #[test]
    fn pics_follow_pcr_selection_and_wrap() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let r = f.new_reg();
        let lo = f.new_reg();
        let base = f.new_reg();
        f.block(e)
            .setpcr(HwEvent::Loads, HwEvent::Stores)
            .wrpic(Operand::Imm(((u32::MAX as i64) << 32) | (u32::MAX as i64))) // both at 2^32-1
            .mov(base, 0x9000i64)
            .load(r, base, 0) // pic0 wraps to 0
            .rdpic(lo)
            .store(Operand::Reg(lo), base, 0)
            .ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.run(&mut NullSink).unwrap();
        let v = m.mem.read_u64(0x9000);
        assert_eq!(v as u32, 0, "pic0 wrapped");
        assert_eq!((v >> 32) as u32, u32::MAX, "pic1 untouched by the load");
    }

    #[test]
    fn setjmp_longjmp_unwinds_frames() {
        // main: setjmp; if first time call helper (which longjmps); else
        // store marker and return.
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper");
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let after = f.new_block();
        let thrown = f.new_block();
        let call_block = f.new_block();
        let tok = f.new_reg();
        let flag = f.new_reg();
        let base = f.new_reg();
        f.block(e).mov(flag, 0i64).setjmp(tok).jump(after);
        // after: if flag != 0, we came back via longjmp
        f.block(after).branch(flag, thrown, call_block);
        f.block(call_block)
            .mov(flag, 1i64)
            .call(helper, vec![Operand::Reg(tok)], None)
            .ret(); // unreachable: helper longjmps
        f.block(thrown)
            .mov(base, 0xA000i64)
            .store(Operand::Imm(7), base, 0)
            .ret();
        let main = f.finish();
        let mut h = pb.procedure_for(helper);
        let he = h.entry_block();
        h.reserve_regs(1);
        h.block(he).longjmp(Reg(0)).ret();
        h.finish();
        let prog = pb.finish(main);
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.run(&mut NullSink).unwrap();
        assert_eq!(m.mem.read_u64(0xA000), 7);
    }

    #[test]
    fn stale_token_in_reoccupied_frame_is_rejected() {
        // setter setjmps and returns its token; main then calls a
        // *different* procedure at the same depth which longjmps with
        // the stale token. Resuming would run setter's code against
        // thrower's register window, so the machine must reject it.
        let mut pb = ProgramBuilder::new();
        let setter = pb.declare("setter");
        let thrower = pb.declare("thrower");
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let tok = f.new_reg();
        f.block(e)
            .call(setter, vec![], Some(tok))
            .call(thrower, vec![Operand::Reg(tok)], None)
            .ret();
        let main = f.finish();
        let mut s = pb.procedure_for(setter);
        let se = s.entry_block();
        s.reserve_regs(1);
        s.block(se).setjmp(Reg(0)).ret();
        s.finish();
        let mut t = pb.procedure_for(thrower);
        let te = t.entry_block();
        t.reserve_regs(1);
        t.block(te).longjmp(Reg(0)).ret();
        t.finish();
        let prog = pb.finish(main);
        let mut m = Machine::new(&prog, MachineConfig::default());
        let err = m.run(&mut NullSink).unwrap_err();
        assert!(matches!(err, ExecError::BadJumpToken { .. }));
    }

    #[test]
    fn instruction_limit_stops_runaway() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let spin = f.new_block();
        f.block(e).jump(spin);
        f.block(spin).nop().jump(spin);
        // Unreachable ret to satisfy the verifier-style structure (the
        // machine doesn't verify, but keep the CFG well-formed).
        let x = f.new_block();
        f.block(x).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let mut m = Machine::new(
            &prog,
            MachineConfig {
                max_instructions: 10_000,
                ..MachineConfig::default()
            },
        );
        assert_eq!(
            m.run(&mut NullSink).unwrap_err(),
            ExecError::InstructionLimit
        );
    }

    #[test]
    fn icache_misses_on_first_touch() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let mut bb = f.block(e);
        for _ in 0..100 {
            bb.nop();
        }
        bb.ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let res = run_program(&prog);
        // 101 instructions * 4 bytes = 404 bytes ≈ 13 lines, all cold.
        let misses = res.metrics.get(HwEvent::IcMiss);
        assert!((12..=14).contains(&misses), "misses = {misses}");
    }

    #[test]
    fn dense_block_counts_match_control_flow() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let i = f.new_reg();
        let c = f.new_reg();
        f.block(e).mov(i, 0i64).jump(h);
        f.block(h).cmp_lt(c, i, 10i64).branch(c, body, x);
        f.block(body).add(i, i, 1i64).jump(h);
        f.block(x).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let mut m = Machine::new(
            &prog,
            MachineConfig {
                trace_blocks: true,
                ..MachineConfig::default()
            },
        );
        m.run(&mut NullSink).unwrap();
        let counts = m.block_counts();
        let pid = prog.entry();
        assert_eq!(counts[&(pid, BlockId(0))], 1);
        assert_eq!(counts[&(pid, BlockId(1))], 11);
        assert_eq!(counts[&(pid, BlockId(2))], 10);
        assert_eq!(counts[&(pid, BlockId(3))], 1);
    }

    /// A well-formed CFG (exit edge exists) whose loop never exits.
    fn spin_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let i = f.new_reg();
        let c = f.new_reg();
        f.block(e).mov(i, 0i64).jump(h);
        // `i` is never incremented, so the exit edge is dead at run time.
        f.block(h).cmp_lt(c, i, 1i64).branch(c, body, x);
        f.block(body).nop().jump(h);
        f.block(x).ret();
        let id = f.finish();
        pb.finish(id)
    }

    #[test]
    fn fuel_limit_stops_guest_with_partial_result() {
        let prog = spin_program();
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.set_limits(GuestLimits::none().with_fuel(5_000));
        let err = m.run(&mut NullSink).unwrap_err();
        assert_eq!(
            err,
            ExecError::LimitExceeded(LimitKind::Fuel { budget: 5_000 })
        );
        let partial = m.partial_result();
        assert!(partial.uops >= 5_000, "uops = {}", partial.uops);
        assert!(partial.cycles() > 0);
    }

    #[test]
    fn fuel_limit_does_not_fire_below_budget() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        f.block(e).nop().ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.set_limits(GuestLimits::none().with_fuel(5_000));
        m.run(&mut NullSink).expect("short run completes");
    }

    #[test]
    fn cancel_token_stops_at_next_checkpoint() {
        let prog = spin_program();
        let token = CancelToken::new();
        token.cancel();
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.set_limits(
            GuestLimits::none()
                .with_cancel(token)
                .with_check_interval(64),
        );
        let err = m.run(&mut NullSink).unwrap_err();
        assert_eq!(err, ExecError::LimitExceeded(LimitKind::Cancelled));
        // The stop is cooperative: within one check interval of the start.
        assert!(m.partial_result().uops <= 128);
    }

    #[test]
    fn zero_deadline_expires_at_first_checkpoint() {
        let prog = spin_program();
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.set_limits(
            GuestLimits::none()
                .with_deadline(std::time::Duration::ZERO)
                .with_check_interval(64),
        );
        let err = m.run(&mut NullSink).unwrap_err();
        assert_eq!(
            err,
            ExecError::LimitExceeded(LimitKind::Deadline { deadline_ms: 0 })
        );
    }

    #[test]
    fn memory_cap_trips_on_page_growth() {
        // Touch 64 distinct 4 KB pages; cap at 8.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let base = f.new_reg();
        let mut bb = f.block(e);
        bb.mov(base, 0x10_0000i64);
        for page in 0..64 {
            bb.store(Operand::Imm(1), base, page * 4096);
        }
        bb.ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.set_limits(
            GuestLimits::none()
                .with_max_resident_pages(8)
                .with_check_interval(16),
        );
        let err = m.run(&mut NullSink).unwrap_err();
        match err {
            ExecError::LimitExceeded(LimitKind::Memory {
                resident_pages,
                cap,
            }) => {
                assert_eq!(cap, 8);
                assert!(resident_pages > 8);
            }
            other => panic!("expected memory limit, got {other:?}"),
        }
    }

    #[test]
    fn call_depth_cap_is_tighter_than_machine_guard() {
        let mut pb = ProgramBuilder::new();
        let this = pb.declare("rec");
        let mut f = pb.procedure_for(this);
        let e = f.entry_block();
        f.block(e).call(this, vec![], None).ret();
        f.finish();
        let prog = pb.finish(this);
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.set_limits(GuestLimits::none().with_max_call_depth(16));
        let err = m.run(&mut NullSink).unwrap_err();
        assert_eq!(
            err,
            ExecError::LimitExceeded(LimitKind::CallDepth { depth: 16, cap: 16 })
        );
    }

    #[test]
    fn inert_limits_leave_run_results_identical() {
        let prog = {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.procedure("main");
            let e = f.entry_block();
            let h = f.new_block();
            let body = f.new_block();
            let x = f.new_block();
            let i = f.new_reg();
            let c = f.new_reg();
            f.block(e).mov(i, 0i64).jump(h);
            f.block(h).cmp_lt(c, i, 1000i64).branch(c, body, x);
            f.block(body).add(i, i, 1i64).jump(h);
            f.block(x).ret();
            let id = f.finish();
            pb.finish(id)
        };
        let plain = run_program(&prog);
        let mut m = Machine::new(&prog, MachineConfig::default());
        // Generous limits that never fire must not perturb the cost model.
        m.set_limits(
            GuestLimits::none()
                .with_fuel(u64::MAX / 2)
                .with_deadline(std::time::Duration::from_secs(3600))
                .with_max_resident_pages(usize::MAX / 2),
        );
        let limited = m.run(&mut NullSink).expect("run");
        assert_eq!(plain.uops, limited.uops);
        assert_eq!(plain.metrics, limited.metrics);
        assert_eq!(plain.pics, limited.pics);
    }

    /// Sink that counts indirect-call inline-cache lookups; every
    /// profiling event uses the (no-op) trait defaults.
    #[derive(Default)]
    struct IcSink {
        hits: u64,
        misses: u64,
    }

    impl crate::sink::ProfSink for IcSink {
        fn icall_cache(&mut self, hit: bool) {
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
        }
    }

    fn traced() -> MachineConfig {
        MachineConfig {
            trace_blocks: true,
            ..MachineConfig::default()
        }
    }

    /// The engine counters of a traced run of `prog`, plus its outcome.
    fn engine_run(
        prog: &Program,
        limits: GuestLimits,
    ) -> (EngineCounters, Result<RunResult, ExecError>) {
        let mut m = Machine::new(prog, traced());
        m.set_limits(limits);
        let res = m.run(&mut NullSink);
        (m.engine_counters(), res)
    }

    fn fused(pairs: &[(&'static str, u64)]) -> std::collections::BTreeMap<&'static str, u64> {
        pairs.iter().copied().collect()
    }

    fn counting_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let i = f.new_reg();
        let c = f.new_reg();
        f.block(e).mov(i, 0i64).jump(h);
        f.block(h).cmp_lt(c, i, 100i64).branch(c, body, x);
        f.block(body).add(i, i, 1i64).jump(h);
        f.block(x).ret();
        let id = f.finish();
        pb.finish(id)
    }

    #[test]
    fn no_fuse_config_keeps_the_arena_unfused() {
        let prog = counting_loop();
        let fused = Machine::new(&prog, MachineConfig::default());
        assert!(fused.decoded.num_fused_ops() > 0);
        let plain = Machine::new(
            &prog,
            MachineConfig {
                no_fuse: true,
                ..MachineConfig::default()
            },
        );
        assert_eq!(plain.decoded.num_fused_ops(), 0);
    }

    #[test]
    fn fused_dispatch_is_observable_and_does_not_perturb_the_run() {
        let prog = counting_loop();
        let m = Machine::new(&prog, MachineConfig::default());
        let arena: Vec<_> = m.decoded.ops.iter().map(MicroOp::mnemonic).collect();
        assert_eq!(
            arena,
            ["mov", "jump", "bini+branch", "bini+jump", "ret"],
            "the loop header and body each fuse into one superinstruction"
        );

        // The header runs 101 times, the body 100 times.
        let (engine, res) = engine_run(&prog, GuestLimits::none());
        let observed = res.expect("run");
        assert_eq!(
            engine.fused,
            fused(&[("bini+branch", 101), ("bini+jump", 100)])
        );
        assert_eq!(engine.fused_hit(), 201);
        assert_eq!(engine.cold_taken, 0);

        // Engine counters describe the host interpreter only: the
        // simulated run — fused, unfused, block-traced or not — is bit
        // for bit the same.
        let mut m = Machine::new(&prog, MachineConfig::default());
        let silent = m.run(&mut NullSink).expect("run");
        assert_eq!(m.engine_counters(), EngineCounters::default());
        let mut m = Machine::new(
            &prog,
            MachineConfig {
                no_fuse: true,
                ..traced()
            },
        );
        let unfused = m.run(&mut NullSink).expect("run");
        assert_eq!(m.engine_counters(), EngineCounters::default());
        for other in [&silent, &unfused] {
            assert_eq!(observed.uops, other.uops);
            assert_eq!(observed.metrics, other.metrics);
            assert_eq!(observed.pics, other.pics);
        }
    }

    #[test]
    fn monomorphic_indirect_call_hits_the_inline_cache() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("id");
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let fp = f.new_reg();
        let i = f.new_reg();
        let c = f.new_reg();
        // The cache is per call *site*: one icall in a loop, so the same
        // site dispatches the same target five times.
        f.block(e).mov(fp, callee.0 as i64).mov(i, 0i64).jump(h);
        f.block(h).cmp_lt(c, i, 5i64).branch(c, body, x);
        f.block(body)
            .icall(fp, vec![], None)
            .add(i, i, 1i64)
            .jump(h);
        f.block(x).ret();
        let main = f.finish();
        let mut g = pb.procedure_for(callee);
        let ge = g.entry_block();
        g.block(ge).ret();
        g.finish();
        let prog = pb.finish(main);

        let mut ic = IcSink::default();
        let mut m = Machine::new(&prog, MachineConfig::default());
        m.run(&mut ic).expect("run");
        // One miss installs the cache line; the same target hits after.
        assert_eq!((ic.misses, ic.hits), (1, 4));
    }

    #[test]
    fn counter_control_ops_take_the_cold_path() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let r = f.new_reg();
        f.block(e).rdpic(r).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let (engine, res) = engine_run(&prog, GuestLimits::none());
        res.expect("run");
        assert_eq!(engine.cold_taken, 1);
        assert!(engine.fused.is_empty());
    }

    #[test]
    fn longjmp_across_frames_drops_the_callers_unexecuted_suffixes() {
        // main setjmps, then calls mid, which calls thrower, which
        // longjmps back to main. Every call site is followed by a fused
        // op that never runs, and so is the longjmp itself.
        let mut pb = ProgramBuilder::new();
        let mid = pb.declare("mid");
        let thrower = pb.declare("thrower");
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let after = f.new_block();
        let call_block = f.new_block();
        let thrown = f.new_block();
        let tok = f.new_reg();
        let flag = f.new_reg();
        let a = f.new_reg();
        let b = f.new_reg();
        f.block(e).mov(flag, 0i64).setjmp(tok).jump(after);
        f.block(after).branch(flag, thrown, call_block);
        f.block(call_block)
            .mov(flag, 1i64)
            .call(mid, vec![Operand::Reg(tok)], None)
            .add(a, a, 1i64)
            .add(b, b, 1i64)
            .ret();
        f.block(thrown).ret();
        let main = f.finish();
        for (id, callee) in [(mid, Some(thrower)), (thrower, None)] {
            let mut p = pb.procedure_for(id);
            let pe = p.entry_block();
            p.reserve_regs(1);
            let x = p.new_reg();
            let y = p.new_reg();
            let mut blk = p.block(pe);
            match callee {
                Some(c) => blk.call(c, vec![Operand::Reg(Reg(0))], None),
                None => blk.add(x, x, 1i64).add(y, y, 1i64).longjmp(Reg(0)),
            };
            blk.add(x, x, 1i64).add(y, y, 1i64).ret();
            p.finish();
        }
        let prog = pb.finish(main);

        // Ran: thrower's first bini+bini; setjmp once, longjmp once.
        // Block entries alone would also count the bini+bini after each
        // of the three frames' stopping points.
        let (engine, res) = engine_run(&prog, GuestLimits::none());
        res.expect("run");
        assert_eq!(engine.fused, fused(&[("bini+bini", 1)]));
        assert_eq!(engine.cold_taken, 2);
    }

    #[test]
    fn longjmp_within_a_frame_resumes_the_setjmp_block_mid_way() {
        // e: setjmp, then n += 1 (fused with m += 1); h loops back via a
        // longjmp in `again` until n reaches 3.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let again = f.new_block();
        let x = f.new_block();
        let [tok, n, m, c, z, w] = [(); 6].map(|()| f.new_reg());
        f.block(e)
            .mov(n, 0i64)
            .setjmp(tok)
            .add(n, n, 1i64)
            .add(m, m, 1i64)
            .jump(h);
        f.block(h).cmp_lt(c, n, 3i64).branch(c, again, x);
        f.block(again)
            .longjmp(tok)
            .add(z, z, Operand::Reg(w))
            .add(w, w, 1i64)
            .ret();
        f.block(x).ret();
        let id = f.finish();
        let prog = pb.finish(id);

        // e's suffix runs three times though e is entered once; the
        // bin+bini after the longjmp never runs though `again` is
        // entered twice.
        let (engine, res) = engine_run(&prog, GuestLimits::none());
        res.expect("run");
        assert_eq!(engine.fused, fused(&[("bini+bini", 3), ("bini+branch", 3)]));
        assert_eq!(engine.cold_taken, 3);
    }

    #[test]
    fn fuel_abort_mid_block_counts_only_what_ran() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let h = f.new_block();
        let body = f.new_block();
        let x = f.new_block();
        let [i, c, a, b, p, q] = [(); 6].map(|()| f.new_reg());
        f.block(e).mov(i, 0i64).jump(h);
        // `i` never changes: the loop spins until the fuel runs out.
        f.block(h).cmp_lt(c, i, 1i64).branch(c, body, x);
        f.block(body)
            .add(a, a, 1i64)
            .add(b, b, 1i64)
            .nop()
            .add(p, p, 1i64)
            .add(q, q, 1i64)
            .nop()
            .jump(h);
        f.block(x).ret();
        let id = f.finish();
        let prog = pb.finish(id);

        // Entry: 2 µops; each iteration: header 2 + body 7. With 97 µops
        // of fuel, the eleventh body stops after its first bini+bini and
        // nop (2 + 10·9 + 2 + 3 = 97).
        let (engine, res) = engine_run(&prog, GuestLimits::none().with_fuel(97));
        assert_eq!(
            res.unwrap_err(),
            ExecError::LimitExceeded(LimitKind::Fuel { budget: 97 })
        );
        assert_eq!(
            engine.fused,
            fused(&[("bini+bini", 21), ("bini+branch", 11)])
        );
    }

    #[test]
    fn bad_indirect_target_mid_block_counts_only_what_ran() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let [fp, a, b] = [(); 3].map(|()| f.new_reg());
        f.block(e)
            .mov(fp, 99i64)
            .add(a, a, 1i64)
            .add(b, b, 1i64)
            .icall(fp, vec![], None)
            .add(a, a, 1i64)
            .add(b, b, 1i64)
            .ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let (engine, res) = engine_run(&prog, GuestLimits::none());
        assert_eq!(res.unwrap_err(), ExecError::BadIndirectTarget { value: 99 });
        assert_eq!(engine.fused, fused(&[("bini+bini", 1)]));
    }
}
