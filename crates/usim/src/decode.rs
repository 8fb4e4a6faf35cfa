//! Predecoding: lowering IR into a flat micro-op arena.
//!
//! The interpreter used to re-resolve every step through the nested
//! `Program -> Procedure -> Block -> Instr` representation: two `Vec`
//! indexations plus a match over [`pp_ir::Instr`] (whose call variant drags
//! a `Vec<Operand>` along) per executed instruction, and a fresh pair of
//! register files allocated per call. [`DecodedProgram`] lowers the whole
//! program once, before execution:
//!
//! * all instructions live in one contiguous [`MicroOp`] arena; the
//!   instruction pointer is an arena offset, and control transfers are
//!   pre-resolved to dense block indices,
//! * every block's simulated address and byte size (the I-cache fetch
//!   layout) is pre-computed into [`BlockMeta`], so entering a block never
//!   consults [`CodeLayout`],
//! * `(proc, block)` pairs are numbered densely, so per-block execution
//!   counts become a flat `Vec<u64>` instead of a `HashMap`,
//! * memory operands are pre-wrapped to `u64` offsets, and branch/switch
//!   predictor site keys are baked into the terminator micro-ops.
//!
//! The lowering is purely structural: micro-ops execute with exactly the
//! same semantics and cost model as the tree-walking interpreter (the
//! `reference` feature keeps that interpreter alive as a differential
//! oracle).

use std::ops::Range;

use pp_ir::instr::{BinOp, FBinOp};
use pp_ir::{
    BlockId, CallTarget, FReg, HwEvent, Instr, Operand, ProcId, ProfOp, Program, Reg, Terminator,
};

use crate::layout::CodeLayout;

/// A dense block index: position of a block in the flattened
/// `(procedure, block)` numbering.
pub(crate) type BlockIdx = u32;

/// Per-block facts needed when control enters the block.
#[derive(Clone, Debug)]
pub(crate) struct BlockMeta {
    /// Arena offset of the block's first micro-op.
    pub first_op: u32,
    /// Simulated address of the block's first instruction.
    pub addr: u64,
    /// Code bytes occupied by the block (instructions + terminator).
    pub bytes: u64,
    /// The procedure owning this block.
    pub proc: ProcId,
    /// The block's original id within its procedure.
    pub orig: BlockId,
}

/// Per-procedure facts needed when a frame is pushed.
#[derive(Clone, Debug)]
pub(crate) struct ProcMeta {
    /// Dense index of the procedure's entry block (its `BlockId(0)`).
    pub first_block: BlockIdx,
    /// Integer registers in the frame.
    pub num_regs: u16,
    /// Floating point registers in the frame.
    pub num_fregs: u16,
}

/// A half-open range into one of [`DecodedProgram`]'s side tables
/// (call arguments, switch targets).
#[derive(Clone, Copy, Debug)]
pub(crate) struct TableRange {
    pub start: u32,
    pub len: u32,
}

/// A predecoded instruction. Mirrors [`pp_ir::Instr`] / [`Terminator`]
/// with all cross-references resolved: callees are procedure indices,
/// jump targets are dense block indices, memory offsets are pre-wrapped,
/// and predictor site keys are baked in.
///
/// The dispatch loop streams this arena, so the variant set is kept
/// within 24 bytes: wide payloads (profiling pseudo-ops, call argument
/// lists, switch target lists) live in side tables on the program, and
/// the immediate/register split of `Store` avoids embedding a 16-byte
/// `Operand` next to a 64-bit offset.
#[derive(Clone, Debug)]
pub(crate) enum MicroOp {
    /// `dst = src`.
    Mov { dst: Reg, src: Operand },
    /// `dst = a <op> b`.
    Bin {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Operand,
    },
    /// `dst = mem[base + offset]`.
    Load { dst: Reg, base: Reg, offset: u64 },
    /// `mem[base + offset] = src` (register source).
    StoreR { src: Reg, base: Reg, offset: u64 },
    /// `mem[base + offset] = imm` (immediate source).
    StoreI { imm: i64, base: Reg, offset: u64 },
    /// `dst = value`.
    FConst { dst: FReg, value: f64 },
    /// `dst = a <op> b` (floating point).
    FBin {
        op: FBinOp,
        dst: FReg,
        a: FReg,
        b: FReg,
    },
    /// `dst = mem[base + offset]` as `f64`.
    FLoad { dst: FReg, base: Reg, offset: u64 },
    /// `mem[base + offset] = src` as `f64`.
    FStore { src: FReg, base: Reg, offset: u64 },
    /// `dst = src as i64`.
    FToI { dst: Reg, src: FReg },
    /// `dst = src as f64`.
    IToF { dst: FReg, src: Reg },
    /// Direct call with a statically-resolved callee; `args` indexes
    /// [`DecodedProgram::call_args`].
    Call {
        callee: ProcId,
        args: TableRange,
        ret: Option<Reg>,
    },
    /// Indirect call through a register holding a procedure index. `ic`
    /// is a dense per-program call-site index into the machine's inline
    /// cache: a monomorphic site revalidates its target with one compare
    /// against the last-seen value instead of a range check (the CCT's
    /// move-to-front insight applied to dispatch).
    CallIndirect {
        target: Reg,
        args: TableRange,
        ret: Option<Reg>,
        ic: u32,
    },
    /// Program the performance control register.
    SetPcr { pic0: HwEvent, pic1: HwEvent },
    /// Read both counters into `dst`.
    RdPic { dst: Reg },
    /// Write both counters from `src`.
    WrPic { src: Operand },
    /// Capture a non-local-return token.
    Setjmp { dst: Reg },
    /// Unwind to a token's frame.
    Longjmp { token: Reg },
    /// A profiling pseudo-op, indexing [`DecodedProgram::prof_ops`].
    Prof(u32),
    /// No operation.
    Nop,
    /// Unconditional jump (terminator).
    Jump { target: BlockIdx },
    /// Conditional branch (terminator); `site_key` is the block's address,
    /// the branch predictor's index.
    Branch {
        cond: Reg,
        taken: BlockIdx,
        not_taken: BlockIdx,
        site_key: u64,
    },
    /// Multi-way branch (terminator); `targets` indexes
    /// [`DecodedProgram::switch_targets`].
    Switch {
        sel: Reg,
        targets: TableRange,
        default: BlockIdx,
        site_key: u64,
    },
    /// Return to the caller (terminator).
    Ret,
    // ----- superinstructions ----------------------------------------------
    // Decode-time fusions of the hottest adjacent micro-op pairs measured
    // by the checked-in meta-profile (crates/usim/meta/uop_meta.json).
    // Each fused handler replays the exact primitive event sequence of
    // its two constituents — same micro-op charges, same cache/predictor
    // touches, in the same order — so profiles stay byte-identical; the
    // win is one dispatch instead of two. Fusion never crosses a block
    // boundary and never captures a `Prof` op, and the branch forms
    // recover their predictor site key from the live frame's block
    // (always current) instead of carrying the 8-byte key.
    /// `Bin{dst, a, b} ; Branch{cond == dst}`: compare-and-branch.
    FusedBinBranch {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
        taken: BlockIdx,
        not_taken: BlockIdx,
    },
    /// `Bin{dst, a, imm} ; Branch{cond == dst}`: compare-immediate-and-branch.
    FusedBinIBranch {
        op: BinOp,
        dst: Reg,
        a: Reg,
        imm: i64,
        taken: BlockIdx,
        not_taken: BlockIdx,
    },
    /// `Bin{dst, a, b} ; Jump`: op-and-jump.
    FusedBinJump {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
        target: BlockIdx,
    },
    /// `Bin{dst, a, imm} ; Jump`: the Ball–Larus path-register bump
    /// (`add r, r, Inc`) falling through a block end.
    FusedBinIJump {
        op: BinOp,
        dst: Reg,
        a: Reg,
        imm: i64,
        target: BlockIdx,
    },
    /// `Load{ldst, base, offset} ; Bin{dst, a, b}` (register operands):
    /// load-then-op, including the dependent `a == ldst` / `b == ldst`
    /// forms (the handler writes `ldst` before reading `a`/`b`).
    FusedLoadBin {
        ldst: Reg,
        base: Reg,
        offset: u64,
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `FBin ; FBin`: back-to-back floating-point ops — the hottest pair
    /// in the meta-profile by far (29% of all dispatches; the FP kernels
    /// are chains of them). Dependent forms are fine: the second op's
    /// reads happen after the first's write-back, exactly as unfused.
    FusedFBinFBin {
        op1: FBinOp,
        dst1: FReg,
        a1: FReg,
        b1: FReg,
        op2: FBinOp,
        dst2: FReg,
        a2: FReg,
        b2: FReg,
    },
    /// `Bin{imm} ; Bin{imm}` — the second-hottest pair (24%) — with both
    /// immediates narrowed to `i32` so two of them fit the 24-byte arena
    /// slot. Wide immediates are vanishingly rare and stay unfused.
    FusedBinIBinI {
        op1: BinOp,
        dst1: Reg,
        a1: Reg,
        imm1: i32,
        op2: BinOp,
        dst2: Reg,
        a2: Reg,
        imm2: i32,
    },
    /// `FBin ; FBin ; FBin`: the FP kernels' chains are long enough that
    /// a three-wide form pays beyond [`MicroOp::FusedFBinFBin`]; three
    /// 7-byte halves still fit the arena slot.
    FusedFBin3 {
        op1: FBinOp,
        dst1: FReg,
        a1: FReg,
        b1: FReg,
        op2: FBinOp,
        dst2: FReg,
        a2: FReg,
        b2: FReg,
        op3: FBinOp,
        dst3: FReg,
        a3: FReg,
        b3: FReg,
    },
    /// `FLoad ; FBin`: stream in an operand, combine (offset narrowed to
    /// `u32`; static data offsets are small).
    FusedFLoadFBin {
        ldst: FReg,
        base: Reg,
        offset: u32,
        op: FBinOp,
        dst: FReg,
        a: FReg,
        b: FReg,
    },
    /// `FBin ; FLoad`: combine, then prefetch the next element.
    FusedFBinFLoad {
        op: FBinOp,
        dst: FReg,
        a: FReg,
        b: FReg,
        ldst: FReg,
        base: Reg,
        offset: u32,
    },
    /// `Bin{imm} ; Load`: index arithmetic feeding a load (both the
    /// immediate and the offset narrowed, as above).
    FusedBinILoad {
        op: BinOp,
        dst: Reg,
        a: Reg,
        imm: i32,
        ldst: Reg,
        base: Reg,
        offset: u32,
    },
    /// `Bin{reg} ; Bin{imm}` — the mixed-operand sibling of
    /// [`MicroOp::FusedBinIBinI`].
    FusedBinRBinI {
        op1: BinOp,
        dst1: Reg,
        a1: Reg,
        b1: Reg,
        op2: BinOp,
        dst2: Reg,
        a2: Reg,
        imm2: i32,
    },
    /// `Bin{imm} ; Bin{reg}` — the other mixed-operand sibling.
    FusedBinIBinR {
        op1: BinOp,
        dst1: Reg,
        a1: Reg,
        imm1: i32,
        op2: BinOp,
        dst2: Reg,
        a2: Reg,
        b2: Reg,
    },
    /// `Bin{reg} ; StoreR`: compute-then-spill.
    FusedBinStoreR {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
        src: Reg,
        base: Reg,
        offset: u32,
    },
    /// `StoreR ; Jump`: a spill falling through a block end.
    FusedStoreRJump {
        src: Reg,
        base: Reg,
        offset: u32,
        target: BlockIdx,
    },
    /// `Prof ; Prof`: adjacent profiling pseudo-ops (counter bump then
    /// CCT transition, say). Profiling semantics replay one at a time, in
    /// order — only the dispatch between them is elided.
    FusedProfProf { p1: u32, p2: u32 },
    /// `Prof ; Jump`: the ubiquitous "bump the path counter, take the
    /// backedge" tail of an instrumented loop body.
    FusedProfJump { p: u32, target: BlockIdx },
    /// `Bin{imm} ; Prof`: the Ball–Larus path-register bump feeding the
    /// profiling op that reads it.
    FusedBinIProf {
        op: BinOp,
        dst: Reg,
        a: Reg,
        imm: i32,
        p: u32,
    },
}

// The whole point of the side tables: the arena the dispatch loop
// streams stays at 24 bytes per micro-op.
const _: () = assert!(std::mem::size_of::<MicroOp>() <= 24);

impl MicroOp {
    /// True for superinstructions (their mnemonics join the fused
    /// constituents with `+`).
    pub(crate) fn is_fused(&self) -> bool {
        self.mnemonic().contains('+')
    }

    /// True for the ops whose handlers are outlined off the hot loop
    /// (counter control and non-local returns).
    pub(crate) fn is_cold(&self) -> bool {
        matches!(
            self,
            MicroOp::SetPcr { .. }
                | MicroOp::RdPic { .. }
                | MicroOp::WrPic { .. }
                | MicroOp::Setjmp { .. }
                | MicroOp::Longjmp { .. }
        )
    }

    /// Short stable name, the key the meta-profile records frequencies
    /// under (`uop.<mnemonic>` / `pair.<a>+<b>` counters).
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            MicroOp::Mov { .. } => "mov",
            MicroOp::Bin {
                b: Operand::Reg(_), ..
            } => "bin",
            MicroOp::Bin {
                b: Operand::Imm(_), ..
            } => "bini",
            MicroOp::Load { .. } => "load",
            MicroOp::StoreR { .. } => "storer",
            MicroOp::StoreI { .. } => "storei",
            MicroOp::FConst { .. } => "fconst",
            MicroOp::FBin { .. } => "fbin",
            MicroOp::FLoad { .. } => "fload",
            MicroOp::FStore { .. } => "fstore",
            MicroOp::FToI { .. } => "ftoi",
            MicroOp::IToF { .. } => "itof",
            MicroOp::Call { .. } => "call",
            MicroOp::CallIndirect { .. } => "icall",
            MicroOp::SetPcr { .. } => "setpcr",
            MicroOp::RdPic { .. } => "rdpic",
            MicroOp::WrPic { .. } => "wrpic",
            MicroOp::Setjmp { .. } => "setjmp",
            MicroOp::Longjmp { .. } => "longjmp",
            MicroOp::Prof(_) => "prof",
            MicroOp::Nop => "nop",
            MicroOp::Jump { .. } => "jump",
            MicroOp::Branch { .. } => "branch",
            MicroOp::Switch { .. } => "switch",
            MicroOp::Ret => "ret",
            MicroOp::FusedBinBranch { .. } => "bin+branch",
            MicroOp::FusedBinIBranch { .. } => "bini+branch",
            MicroOp::FusedBinJump { .. } => "bin+jump",
            MicroOp::FusedBinIJump { .. } => "bini+jump",
            MicroOp::FusedLoadBin { .. } => "load+bin",
            MicroOp::FusedFBinFBin { .. } => "fbin+fbin",
            MicroOp::FusedBinIBinI { .. } => "bini+bini",
            MicroOp::FusedFBin3 { .. } => "fbin+fbin+fbin",
            MicroOp::FusedFLoadFBin { .. } => "fload+fbin",
            MicroOp::FusedFBinFLoad { .. } => "fbin+fload",
            MicroOp::FusedBinILoad { .. } => "bini+load",
            MicroOp::FusedBinRBinI { .. } => "bin+bini",
            MicroOp::FusedBinIBinR { .. } => "bini+bin",
            MicroOp::FusedBinStoreR { .. } => "bin+storer",
            MicroOp::FusedStoreRJump { .. } => "storer+jump",
            MicroOp::FusedProfProf { .. } => "prof+prof",
            MicroOp::FusedProfJump { .. } => "prof+jump",
            MicroOp::FusedBinIProf { .. } => "bini+prof",
        }
    }
}

/// A program lowered into a flat micro-op arena, ready for the
/// index-dispatch run loop of [`Machine`](crate::Machine).
#[derive(Clone, Debug, Default)]
pub struct DecodedProgram {
    pub(crate) ops: Vec<MicroOp>,
    pub(crate) blocks: Vec<BlockMeta>,
    pub(crate) procs: Vec<ProcMeta>,
    /// Side table for [`MicroOp::Prof`]: the full profiling pseudo-ops.
    pub(crate) prof_ops: Vec<ProfOp>,
    /// Side table for call argument lists ([`MicroOp::Call`] /
    /// [`MicroOp::CallIndirect`]).
    pub(crate) call_args: Vec<Operand>,
    /// Side table for [`MicroOp::Switch`] target lists.
    pub(crate) switch_targets: Vec<BlockIdx>,
    /// Number of indirect call sites (the machine sizes its inline cache
    /// from this; sites are numbered densely in lowering order).
    pub(crate) num_icall_sites: u32,
}

impl DecodedProgram {
    /// Lowers `program` (laid out by `layout`) into the arena.
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed: an instruction naming a
    /// register outside its procedure's declared count, a control
    /// transfer targeting a block outside the procedure, or a direct
    /// call to an undeclared procedure. The dispatch loop executes
    /// register and arena accesses unchecked on the strength of this
    /// validation (see [`Machine::run`](crate::Machine::run)), so
    /// rejecting bad programs here — once, before execution — is
    /// load-bearing, not cosmetic.
    pub fn new(program: &Program, layout: &CodeLayout) -> DecodedProgram {
        let mut first_block = Vec::with_capacity(program.procedures().len());
        let mut total_blocks = 0u32;
        for (_, p) in program.iter_procedures() {
            first_block.push(total_blocks);
            total_blocks += p.blocks.len() as u32;
        }

        let total_ops: usize = program
            .procedures()
            .iter()
            .flat_map(|p| p.blocks.iter())
            .map(|b| b.instrs.len() + 1)
            .sum();
        let mut ops = Vec::with_capacity(total_ops);
        let mut blocks = Vec::with_capacity(total_blocks as usize);
        let mut procs = Vec::with_capacity(program.procedures().len());
        let mut prof_ops = Vec::new();
        let mut call_args = Vec::new();
        let mut switch_targets = Vec::new();
        let mut icall_sites = 0u32;

        for (pid, p) in program.iter_procedures() {
            procs.push(ProcMeta {
                first_block: first_block[pid.index()],
                num_regs: p.num_regs,
                num_fregs: p.num_fregs,
            });
            let base = first_block[pid.index()];
            let ops_start = ops.len();
            for (bid, b) in p.iter_blocks() {
                blocks.push(BlockMeta {
                    first_op: ops.len() as u32,
                    addr: layout.block_addr(pid, bid),
                    bytes: layout.block_bytes(pid, bid),
                    proc: pid,
                    orig: bid,
                });
                for i in &b.instrs {
                    ops.push(lower_instr(
                        i,
                        &mut prof_ops,
                        &mut call_args,
                        &mut icall_sites,
                    ));
                }
                ops.push(lower_term(
                    &b.term,
                    base,
                    layout.block_addr(pid, bid),
                    &mut switch_targets,
                ));
            }
            validate_proc(
                &ops[ops_start..],
                Sides {
                    prof_ops: &prof_ops,
                    call_args: &call_args,
                    switch_targets: &switch_targets,
                },
                pid,
                p.num_regs,
                p.num_fregs,
                program.procedures().len(),
                base,
                base + p.blocks.len() as u32,
            );
        }

        DecodedProgram {
            ops,
            blocks,
            procs,
            prof_ops,
            call_args,
            switch_targets,
            num_icall_sites: icall_sites,
        }
    }

    /// Rewrites the arena in place, fusing the hottest adjacent micro-op
    /// pairs (per the checked-in meta-profile) into superinstructions and
    /// re-anchoring every block's `first_op`. Pairs are matched greedily
    /// left-to-right *within* a block — a candidate pair split across a
    /// block end is never fused (the second op is a branch target), and
    /// an op between two fusable ops blocks their match because only
    /// immediately adjacent ops pair (it may start its own pair instead:
    /// `Prof` fuses with a neighboring `Prof`, `Jump`, or path-register
    /// bump). Everything control flow can name
    /// survives unchanged: block entries (jump/branch/switch targets),
    /// call resume points (`Call`/`CallIndirect` never fuse), and setjmp
    /// resume points (`Setjmp` never fuses, so a longjmp resume offset —
    /// recorded at runtime, post-fusion — can't land inside a pair).
    pub(crate) fn fuse(&mut self) {
        let mut fused = Vec::with_capacity(self.ops.len());
        for bi in 0..self.blocks.len() {
            let Range { start, end } = self.block_ops(bi);
            self.blocks[bi].first_op = fused.len() as u32;
            let mut r = start;
            while r < end {
                // Widest match first: a triple, then a pair, then the op
                // alone. Still greedy left-to-right, still block-local.
                if r + 2 < end {
                    if let Some(f) = fuse_triple(&self.ops[r], &self.ops[r + 1], &self.ops[r + 2]) {
                        fused.push(f);
                        r += 3;
                        continue;
                    }
                }
                if r + 1 < end {
                    if let Some(f) = fuse_pair(&self.ops[r], &self.ops[r + 1]) {
                        fused.push(f);
                        r += 2;
                        continue;
                    }
                }
                fused.push(self.ops[r].clone());
                r += 1;
            }
        }
        self.ops = fused;
    }

    /// The arena range of dense block `bi`'s micro-ops. Blocks are
    /// lowered in dense order, so block `bi`'s ops are exactly
    /// `[first_op[bi], first_op[bi + 1])`.
    pub(crate) fn block_ops(&self, bi: usize) -> Range<usize> {
        let start = self.blocks[bi].first_op as usize;
        let end = self
            .blocks
            .get(bi + 1)
            .map_or(self.ops.len(), |b| b.first_op as usize);
        start..end
    }

    /// The call argument list a [`TableRange`] names.
    #[inline]
    pub(crate) fn args(&self, r: TableRange) -> &[Operand] {
        &self.call_args[r.start as usize..(r.start + r.len) as usize]
    }

    /// The switch target list a [`TableRange`] names.
    #[inline]
    pub(crate) fn targets(&self, r: TableRange) -> &[BlockIdx] {
        &self.switch_targets[r.start as usize..(r.start + r.len) as usize]
    }

    /// Number of micro-ops in the arena.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of fused superinstructions in the arena. Fused mnemonics
    /// are exactly the `+`-joined ones, so the check needs no variant
    /// list to keep in sync.
    pub fn num_fused_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.is_fused()).count()
    }

    /// Number of blocks in the dense `(proc, block)` numbering.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Checks one procedure's lowered micro-ops against its declared register
/// counts, the program's procedure count, and its own dense block range.
///
/// The run loop leans on this: register-file and arena accesses execute
/// unchecked in release builds, which is sound only because every index a
/// micro-op can mention was proven in range here. Release-mode safety for
/// the whole interpreter therefore concentrates in this one pass.
/// The side tables a procedure's micro-ops may reference during
/// validation.
struct Sides<'a> {
    prof_ops: &'a [ProfOp],
    call_args: &'a [Operand],
    switch_targets: &'a [BlockIdx],
}

#[allow(clippy::too_many_arguments)] // one-shot internal checker; a param struct would only obscure it
fn validate_proc(
    ops: &[MicroOp],
    sides: Sides<'_>,
    pid: ProcId,
    num_regs: u16,
    num_fregs: u16,
    num_procs: usize,
    block_lo: BlockIdx,
    block_hi: BlockIdx,
) {
    let reg = |r: Reg| {
        assert!(
            r.index() < num_regs as usize,
            "procedure {pid:?}: {r:?} out of range (declares {num_regs} registers)"
        );
    };
    let freg = |r: FReg| {
        assert!(
            r.index() < num_fregs as usize,
            "procedure {pid:?}: {r:?} out of range (declares {num_fregs} fp registers)"
        );
    };
    let operand = |o: &Operand| {
        if let Operand::Reg(r) = o {
            reg(*r);
        }
    };
    let block = |t: BlockIdx| {
        assert!(
            (block_lo..block_hi).contains(&t),
            "procedure {pid:?}: control transfer to a block outside the procedure"
        );
    };
    let callee_ok = |c: ProcId| {
        assert!(
            c.index() < num_procs,
            "procedure {pid:?}: call to undeclared procedure {c:?}"
        );
    };
    for op in ops {
        match op {
            MicroOp::Mov { dst, src } => {
                reg(*dst);
                operand(src);
            }
            MicroOp::Bin { dst, a, b, .. } => {
                reg(*dst);
                reg(*a);
                operand(b);
            }
            MicroOp::Load { dst, base, .. } => {
                reg(*dst);
                reg(*base);
            }
            MicroOp::StoreR { src, base, .. } => {
                reg(*src);
                reg(*base);
            }
            MicroOp::StoreI { base, .. } => reg(*base),
            MicroOp::FConst { dst, .. } => freg(*dst),
            MicroOp::FBin { dst, a, b, .. } => {
                freg(*dst);
                freg(*a);
                freg(*b);
            }
            MicroOp::FLoad { dst, base, .. } => {
                freg(*dst);
                reg(*base);
            }
            MicroOp::FStore { src, base, .. } => {
                freg(*src);
                reg(*base);
            }
            MicroOp::FToI { dst, src } => {
                reg(*dst);
                freg(*src);
            }
            MicroOp::IToF { dst, src } => {
                freg(*dst);
                reg(*src);
            }
            MicroOp::Call { callee, args, ret } => {
                callee_ok(*callee);
                sides.call_args[args.start as usize..(args.start + args.len) as usize]
                    .iter()
                    .for_each(&operand);
                if let Some(r) = ret {
                    reg(*r);
                }
            }
            MicroOp::CallIndirect {
                target, args, ret, ..
            } => {
                reg(*target);
                sides.call_args[args.start as usize..(args.start + args.len) as usize]
                    .iter()
                    .for_each(&operand);
                if let Some(r) = ret {
                    reg(*r);
                }
            }
            MicroOp::SetPcr { .. } | MicroOp::Nop | MicroOp::Ret => {}
            MicroOp::RdPic { dst } => reg(*dst),
            MicroOp::WrPic { src } => operand(src),
            MicroOp::Setjmp { dst } => reg(*dst),
            MicroOp::Longjmp { token } => reg(*token),
            MicroOp::Prof(i) => match &sides.prof_ops[*i as usize] {
                ProfOp::PathCount { reg: r, .. }
                | ProfOp::PathCountBackedge { reg: r, .. }
                | ProfOp::PathMetrics { reg: r, .. }
                | ProfOp::PathMetricsBackedge { reg: r, .. }
                | ProfOp::CctPathCount { reg: r }
                | ProfOp::CctPathCountBackedge { reg: r, .. }
                | ProfOp::CctPathMetrics { reg: r }
                | ProfOp::CctPathMetricsBackedge { reg: r, .. } => reg(*r),
                ProfOp::CctCall {
                    path_reg: Some(r), ..
                } => reg(*r),
                _ => {}
            },
            MicroOp::Jump { target } => block(*target),
            MicroOp::Branch {
                cond,
                taken,
                not_taken,
                ..
            } => {
                reg(*cond);
                block(*taken);
                block(*not_taken);
            }
            MicroOp::Switch {
                sel,
                targets,
                default,
                ..
            } => {
                reg(*sel);
                sides.switch_targets
                    [targets.start as usize..(targets.start + targets.len) as usize]
                    .iter()
                    .for_each(|t| block(*t));
                block(*default);
            }
            // Superinstructions are synthesized by `fuse` *after* this
            // pass runs, from already-validated constituents; the arms
            // exist so a fused arena revalidates cleanly too.
            MicroOp::FusedBinBranch {
                dst,
                a,
                b,
                taken,
                not_taken,
                ..
            } => {
                reg(*dst);
                reg(*a);
                reg(*b);
                block(*taken);
                block(*not_taken);
            }
            MicroOp::FusedBinIBranch {
                dst,
                a,
                taken,
                not_taken,
                ..
            } => {
                reg(*dst);
                reg(*a);
                block(*taken);
                block(*not_taken);
            }
            MicroOp::FusedBinJump {
                dst, a, b, target, ..
            } => {
                reg(*dst);
                reg(*a);
                reg(*b);
                block(*target);
            }
            MicroOp::FusedBinIJump { dst, a, target, .. } => {
                reg(*dst);
                reg(*a);
                block(*target);
            }
            MicroOp::FusedLoadBin {
                ldst,
                base,
                dst,
                a,
                b,
                ..
            } => {
                reg(*ldst);
                reg(*base);
                reg(*dst);
                reg(*a);
                reg(*b);
            }
            MicroOp::FusedFBinFBin {
                dst1,
                a1,
                b1,
                dst2,
                a2,
                b2,
                ..
            } => {
                freg(*dst1);
                freg(*a1);
                freg(*b1);
                freg(*dst2);
                freg(*a2);
                freg(*b2);
            }
            MicroOp::FusedBinIBinI {
                dst1, a1, dst2, a2, ..
            } => {
                reg(*dst1);
                reg(*a1);
                reg(*dst2);
                reg(*a2);
            }
            MicroOp::FusedFBin3 {
                dst1,
                a1,
                b1,
                dst2,
                a2,
                b2,
                dst3,
                a3,
                b3,
                ..
            } => {
                for r in [dst1, a1, b1, dst2, a2, b2, dst3, a3, b3] {
                    freg(*r);
                }
            }
            MicroOp::FusedFLoadFBin {
                ldst,
                base,
                dst,
                a,
                b,
                ..
            }
            | MicroOp::FusedFBinFLoad {
                ldst,
                base,
                dst,
                a,
                b,
                ..
            } => {
                freg(*ldst);
                reg(*base);
                freg(*dst);
                freg(*a);
                freg(*b);
            }
            MicroOp::FusedBinILoad {
                dst, a, ldst, base, ..
            } => {
                reg(*dst);
                reg(*a);
                reg(*ldst);
                reg(*base);
            }
            MicroOp::FusedBinRBinI {
                dst1,
                a1,
                b1,
                dst2,
                a2,
                ..
            } => {
                reg(*dst1);
                reg(*a1);
                reg(*b1);
                reg(*dst2);
                reg(*a2);
            }
            MicroOp::FusedBinIBinR {
                dst1,
                a1,
                dst2,
                a2,
                b2,
                ..
            } => {
                reg(*dst1);
                reg(*a1);
                reg(*dst2);
                reg(*a2);
                reg(*b2);
            }
            MicroOp::FusedBinStoreR {
                dst,
                a,
                b,
                src,
                base,
                ..
            } => {
                reg(*dst);
                reg(*a);
                reg(*b);
                reg(*src);
                reg(*base);
            }
            MicroOp::FusedStoreRJump {
                src, base, target, ..
            } => {
                reg(*src);
                reg(*base);
                block(*target);
            }
            MicroOp::FusedProfProf { p1, p2 } => {
                assert!(
                    (*p1 as usize) < sides.prof_ops.len() && (*p2 as usize) < sides.prof_ops.len(),
                    "procedure {pid:?}: fused prof op out of range"
                );
            }
            MicroOp::FusedProfJump { p, target } => {
                assert!(
                    (*p as usize) < sides.prof_ops.len(),
                    "procedure {pid:?}: fused prof op out of range"
                );
                block(*target);
            }
            MicroOp::FusedBinIProf { dst, a, p, .. } => {
                reg(*dst);
                reg(*a);
                assert!(
                    (*p as usize) < sides.prof_ops.len(),
                    "procedure {pid:?}: fused prof op out of range"
                );
            }
        }
    }
}

/// The pair-fusion peephole: the patterns are the hottest adjacent pairs
/// in the meta-profile (see `DESIGN.md` §13). Returns the superinstruction
/// replacing `(a, b)`, or `None` when the pair doesn't match.
fn fuse_pair(a: &MicroOp, b: &MicroOp) -> Option<MicroOp> {
    match (a, b) {
        (
            MicroOp::Bin { op, dst, a, b },
            MicroOp::Branch {
                cond,
                taken,
                not_taken,
                ..
            },
        ) if cond == dst => Some(match b {
            Operand::Reg(b) => MicroOp::FusedBinBranch {
                op: *op,
                dst: *dst,
                a: *a,
                b: *b,
                taken: *taken,
                not_taken: *not_taken,
            },
            Operand::Imm(v) => MicroOp::FusedBinIBranch {
                op: *op,
                dst: *dst,
                a: *a,
                imm: *v,
                taken: *taken,
                not_taken: *not_taken,
            },
        }),
        (MicroOp::Bin { op, dst, a, b }, MicroOp::Jump { target }) => Some(match b {
            Operand::Reg(b) => MicroOp::FusedBinJump {
                op: *op,
                dst: *dst,
                a: *a,
                b: *b,
                target: *target,
            },
            Operand::Imm(v) => MicroOp::FusedBinIJump {
                op: *op,
                dst: *dst,
                a: *a,
                imm: *v,
                target: *target,
            },
        }),
        (
            MicroOp::Load {
                dst: ldst,
                base,
                offset,
            },
            MicroOp::Bin {
                op,
                dst,
                a,
                b: Operand::Reg(b),
            },
        ) => Some(MicroOp::FusedLoadBin {
            ldst: *ldst,
            base: *base,
            offset: *offset,
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
        }),
        (
            MicroOp::FBin {
                op: op1,
                dst: dst1,
                a: a1,
                b: b1,
            },
            MicroOp::FBin {
                op: op2,
                dst: dst2,
                a: a2,
                b: b2,
            },
        ) => Some(MicroOp::FusedFBinFBin {
            op1: *op1,
            dst1: *dst1,
            a1: *a1,
            b1: *b1,
            op2: *op2,
            dst2: *dst2,
            a2: *a2,
            b2: *b2,
        }),
        (
            MicroOp::Bin {
                op: op1,
                dst: dst1,
                a: a1,
                b: Operand::Imm(i1),
            },
            MicroOp::Bin {
                op: op2,
                dst: dst2,
                a: a2,
                b: Operand::Imm(i2),
            },
        ) => {
            // Both immediates must survive the i32 narrowing that makes
            // the pair fit the arena slot.
            let imm1 = i32::try_from(*i1).ok()?;
            let imm2 = i32::try_from(*i2).ok()?;
            Some(MicroOp::FusedBinIBinI {
                op1: *op1,
                dst1: *dst1,
                a1: *a1,
                imm1,
                op2: *op2,
                dst2: *dst2,
                a2: *a2,
                imm2,
            })
        }
        (
            MicroOp::Bin {
                op: op1,
                dst: dst1,
                a: a1,
                b: Operand::Reg(b1),
            },
            MicroOp::Bin {
                op: op2,
                dst: dst2,
                a: a2,
                b: Operand::Imm(i2),
            },
        ) => Some(MicroOp::FusedBinRBinI {
            op1: *op1,
            dst1: *dst1,
            a1: *a1,
            b1: *b1,
            op2: *op2,
            dst2: *dst2,
            a2: *a2,
            imm2: i32::try_from(*i2).ok()?,
        }),
        (
            MicroOp::Bin {
                op: op1,
                dst: dst1,
                a: a1,
                b: Operand::Imm(i1),
            },
            MicroOp::Bin {
                op: op2,
                dst: dst2,
                a: a2,
                b: Operand::Reg(b2),
            },
        ) => Some(MicroOp::FusedBinIBinR {
            op1: *op1,
            dst1: *dst1,
            a1: *a1,
            imm1: i32::try_from(*i1).ok()?,
            op2: *op2,
            dst2: *dst2,
            a2: *a2,
            b2: *b2,
        }),
        (
            MicroOp::Bin {
                op,
                dst,
                a,
                b: Operand::Imm(imm),
            },
            MicroOp::Load {
                dst: ldst,
                base,
                offset,
            },
        ) => Some(MicroOp::FusedBinILoad {
            op: *op,
            dst: *dst,
            a: *a,
            imm: i32::try_from(*imm).ok()?,
            ldst: *ldst,
            base: *base,
            offset: u32::try_from(*offset).ok()?,
        }),
        (
            MicroOp::Bin {
                op,
                dst,
                a,
                b: Operand::Reg(b),
            },
            MicroOp::StoreR { src, base, offset },
        ) => Some(MicroOp::FusedBinStoreR {
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
            src: *src,
            base: *base,
            offset: u32::try_from(*offset).ok()?,
        }),
        (MicroOp::StoreR { src, base, offset }, MicroOp::Jump { target }) => {
            Some(MicroOp::FusedStoreRJump {
                src: *src,
                base: *base,
                offset: u32::try_from(*offset).ok()?,
                target: *target,
            })
        }
        (
            MicroOp::FLoad {
                dst: ldst,
                base,
                offset,
            },
            MicroOp::FBin { op, dst, a, b },
        ) => Some(MicroOp::FusedFLoadFBin {
            ldst: *ldst,
            base: *base,
            offset: u32::try_from(*offset).ok()?,
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
        }),
        (
            MicroOp::FBin { op, dst, a, b },
            MicroOp::FLoad {
                dst: ldst,
                base,
                offset,
            },
        ) => Some(MicroOp::FusedFBinFLoad {
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
            ldst: *ldst,
            base: *base,
            offset: u32::try_from(*offset).ok()?,
        }),
        (MicroOp::Prof(p1), MicroOp::Prof(p2)) => Some(MicroOp::FusedProfProf { p1: *p1, p2: *p2 }),
        (MicroOp::Prof(p), MicroOp::Jump { target }) => Some(MicroOp::FusedProfJump {
            p: *p,
            target: *target,
        }),
        (
            MicroOp::Bin {
                op,
                dst,
                a,
                b: Operand::Imm(imm),
            },
            MicroOp::Prof(p),
        ) => Some(MicroOp::FusedBinIProf {
            op: *op,
            dst: *dst,
            a: *a,
            imm: i32::try_from(*imm).ok()?,
            p: *p,
        }),
        _ => None,
    }
}

/// The only three-wide pattern: an FP-chain link. Everything else pays
/// its way at width two.
fn fuse_triple(a: &MicroOp, b: &MicroOp, c: &MicroOp) -> Option<MicroOp> {
    match (a, b, c) {
        (
            MicroOp::FBin {
                op: op1,
                dst: dst1,
                a: a1,
                b: b1,
            },
            MicroOp::FBin {
                op: op2,
                dst: dst2,
                a: a2,
                b: b2,
            },
            MicroOp::FBin {
                op: op3,
                dst: dst3,
                a: a3,
                b: b3,
            },
        ) => Some(MicroOp::FusedFBin3 {
            op1: *op1,
            dst1: *dst1,
            a1: *a1,
            b1: *b1,
            op2: *op2,
            dst2: *dst2,
            a2: *a2,
            b2: *b2,
            op3: *op3,
            dst3: *dst3,
            a3: *a3,
            b3: *b3,
        }),
        _ => None,
    }
}

fn lower_instr(
    i: &Instr,
    prof_ops: &mut Vec<ProfOp>,
    call_args: &mut Vec<Operand>,
    icall_sites: &mut u32,
) -> MicroOp {
    match i {
        Instr::Mov { dst, src } => MicroOp::Mov {
            dst: *dst,
            src: *src,
        },
        Instr::Bin { op, dst, a, b } => MicroOp::Bin {
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
        },
        Instr::Load { dst, base, offset } => MicroOp::Load {
            dst: *dst,
            base: *base,
            offset: *offset as u64,
        },
        Instr::Store { src, base, offset } => match src {
            Operand::Reg(r) => MicroOp::StoreR {
                src: *r,
                base: *base,
                offset: *offset as u64,
            },
            Operand::Imm(v) => MicroOp::StoreI {
                imm: *v,
                base: *base,
                offset: *offset as u64,
            },
        },
        Instr::FConst { dst, value } => MicroOp::FConst {
            dst: *dst,
            value: *value,
        },
        Instr::FBin { op, dst, a, b } => MicroOp::FBin {
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
        },
        Instr::FLoad { dst, base, offset } => MicroOp::FLoad {
            dst: *dst,
            base: *base,
            offset: *offset as u64,
        },
        Instr::FStore { src, base, offset } => MicroOp::FStore {
            src: *src,
            base: *base,
            offset: *offset as u64,
        },
        Instr::FToI { dst, src } => MicroOp::FToI {
            dst: *dst,
            src: *src,
        },
        Instr::IToF { dst, src } => MicroOp::IToF {
            dst: *dst,
            src: *src,
        },
        Instr::Call {
            target, args, ret, ..
        } => {
            let start = call_args.len() as u32;
            call_args.extend_from_slice(args.as_slice());
            let args = TableRange {
                start,
                len: args.len() as u32,
            };
            match target {
                CallTarget::Direct(p) => MicroOp::Call {
                    callee: *p,
                    args,
                    ret: *ret,
                },
                CallTarget::Indirect(r) => {
                    let ic = *icall_sites;
                    *icall_sites += 1;
                    MicroOp::CallIndirect {
                        target: *r,
                        args,
                        ret: *ret,
                        ic,
                    }
                }
            }
        }
        Instr::SetPcr { pic0, pic1 } => MicroOp::SetPcr {
            pic0: *pic0,
            pic1: *pic1,
        },
        Instr::RdPic { dst } => MicroOp::RdPic { dst: *dst },
        Instr::WrPic { src } => MicroOp::WrPic { src: *src },
        Instr::Setjmp { dst } => MicroOp::Setjmp { dst: *dst },
        Instr::Longjmp { token } => MicroOp::Longjmp { token: *token },
        Instr::Prof(op) => {
            let i = prof_ops.len() as u32;
            prof_ops.push(*op);
            MicroOp::Prof(i)
        }
        Instr::Nop => MicroOp::Nop,
    }
}

fn lower_term(
    t: &Terminator,
    base: BlockIdx,
    site_key: u64,
    switch_targets: &mut Vec<BlockIdx>,
) -> MicroOp {
    match t {
        Terminator::Jump(b) => MicroOp::Jump { target: base + b.0 },
        Terminator::Branch {
            cond,
            taken,
            not_taken,
        } => MicroOp::Branch {
            cond: *cond,
            taken: base + taken.0,
            not_taken: base + not_taken.0,
            site_key,
        },
        Terminator::Switch {
            sel,
            targets,
            default,
        } => {
            let start = switch_targets.len() as u32;
            switch_targets.extend(targets.iter().map(|b| base + b.0));
            MicroOp::Switch {
                sel: *sel,
                targets: TableRange {
                    start,
                    len: targets.len() as u32,
                },
                default: base + default.0,
                site_key,
            }
        }
        Terminator::Ret => MicroOp::Ret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ir::build::ProgramBuilder;

    #[test]
    fn arena_is_flat_and_dense() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("a");
        let e = f.entry_block();
        let b2 = f.new_block();
        let r = f.new_reg();
        f.block(e).mov(r, 1i64).jump(b2);
        f.block(b2).ret();
        let a = f.finish();
        let mut g = pb.procedure("b");
        let ge = g.entry_block();
        g.block(ge).nop().ret();
        g.finish();
        let prog = pb.finish(a);

        let layout = CodeLayout::new(&prog, 0x10000);
        let d = DecodedProgram::new(&prog, &layout);
        // a: (mov, jump) + (ret); b: (nop, ret) => 5 ops, 3 blocks.
        assert_eq!(d.num_ops(), 5);
        assert_eq!(d.num_blocks(), 3);
        assert_eq!(d.procs[0].first_block, 0);
        assert_eq!(d.procs[1].first_block, 2);
        // The jump in a's entry resolves to dense block 1.
        assert!(matches!(d.ops[1], MicroOp::Jump { target: 1 }));
        // Block metadata mirrors the layout.
        assert_eq!(d.blocks[2].addr, layout.block_addr(ProcId(1), BlockId(0)));
        assert_eq!(d.blocks[1].proc, ProcId(0));
        assert_eq!(d.blocks[1].orig, BlockId(1));
    }

    fn mnemonics(d: &DecodedProgram) -> Vec<&'static str> {
        d.ops.iter().map(MicroOp::mnemonic).collect()
    }

    #[test]
    fn fusion_is_block_local_and_reanchors_first_op() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let b2 = f.new_block();
        let f0 = f.new_freg();
        let f1 = f.new_freg();
        let f2 = f.new_freg();
        let f3 = f.new_freg();
        // Entry ends on an FBin and b2 begins with one: adjacent in the
        // arena, but split across a block end — b2's head is a jump
        // target and must stay addressable.
        f.block(e)
            .fbin(FBinOp::Add, f1, f0, f0)
            .fbin(FBinOp::Add, f2, f1, f1)
            .jump(b2);
        f.block(b2).fbin(FBinOp::Add, f3, f2, f2).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let layout = CodeLayout::new(&prog, 0x10000);
        let mut d = DecodedProgram::new(&prog, &layout);
        d.fuse();
        // The in-block pair fuses; the boundary-straddling one does not.
        assert_eq!(mnemonics(&d), ["fbin+fbin", "jump", "fbin", "ret"]);
        assert_eq!(d.num_fused_ops(), 1);
        // b2's first_op re-anchored from 3 to 2 after the entry shrank.
        assert_eq!(d.blocks[1].first_op, 2);
    }

    #[test]
    fn intervening_op_blocks_fusion() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let r0 = f.new_reg();
        let f0 = f.new_freg();
        let f1 = f.new_freg();
        let f2 = f.new_freg();
        f.block(e)
            .fbin(FBinOp::Mul, f1, f0, f0)
            .mov(r0, 7i64)
            .fbin(FBinOp::Mul, f2, f1, f1)
            .ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let layout = CodeLayout::new(&prog, 0x10000);
        let mut d = DecodedProgram::new(&prog, &layout);
        d.fuse();
        // Only immediately adjacent ops pair; the mov keeps them apart.
        assert_eq!(mnemonics(&d), ["fbin", "mov", "fbin", "ret"]);
        assert_eq!(d.num_fused_ops(), 0);
    }

    #[test]
    fn triple_is_matched_before_pair() {
        let build = |n: usize| {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.procedure("main");
            let e = f.entry_block();
            let f0 = f.new_freg();
            {
                let mut b = f.block(e);
                for _ in 0..n {
                    b.fbin(FBinOp::Add, f0, f0, f0);
                }
                b.ret();
            }
            let id = f.finish();
            pb.finish(id)
        };
        let prog = build(3);
        let layout = CodeLayout::new(&prog, 0x10000);
        let mut d = DecodedProgram::new(&prog, &layout);
        d.fuse();
        assert_eq!(mnemonics(&d), ["fbin+fbin+fbin", "ret"]);
        // Greedy widest-first: four in a row leave a lone trailing FBin
        // rather than two pairs.
        let prog = build(4);
        let layout = CodeLayout::new(&prog, 0x10000);
        let mut d = DecodedProgram::new(&prog, &layout);
        d.fuse();
        assert_eq!(mnemonics(&d), ["fbin+fbin+fbin", "fbin", "ret"]);
    }

    #[test]
    fn immediate_too_wide_for_the_fused_encoding_stays_unfused() {
        let build = |imm: i64| {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.procedure("main");
            let e = f.entry_block();
            let r0 = f.new_reg();
            let r1 = f.new_reg();
            let r2 = f.new_reg();
            f.block(e).add(r1, r0, imm).add(r2, r1, 1i64).ret();
            let id = f.finish();
            pb.finish(id)
        };
        // Fits i32: the pair fuses.
        let prog = build(1 << 20);
        let layout = CodeLayout::new(&prog, 0x10000);
        let mut d = DecodedProgram::new(&prog, &layout);
        d.fuse();
        assert_eq!(mnemonics(&d), ["bini+bini", "ret"]);
        // Doesn't fit the fused form's narrowed i32 field: left alone.
        let prog = build(i64::from(i32::MAX) + 1);
        let layout = CodeLayout::new(&prog, 0x10000);
        let mut d = DecodedProgram::new(&prog, &layout);
        d.fuse();
        assert_eq!(mnemonics(&d), ["bini", "bini", "ret"]);
    }

    #[test]
    fn prof_between_fusable_ops_starts_its_own_pair() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        let t = f.new_block();
        let nt = f.new_block();
        let r0 = f.new_reg();
        let r1 = f.new_reg();
        f.block(e)
            .add(r1, r0, 1i64)
            .prof(ProfOp::Spill)
            .branch(r1, t, nt);
        f.block(t).ret();
        f.block(nt).ret();
        let id = f.finish();
        let prog = pb.finish(id);
        let layout = CodeLayout::new(&prog, 0x10000);
        let mut d = DecodedProgram::new(&prog, &layout);
        d.fuse();
        // The prof op sits between a BinI and the branch it would
        // otherwise fuse with; greedy matching pairs (bini, prof) and
        // leaves the branch — a terminator never fuses backwards.
        assert_eq!(mnemonics(&d), ["bini+prof", "branch", "ret", "ret"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_is_rejected_at_decode() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.procedure("main");
        let e = f.entry_block();
        f.block(e).mov(Reg(7), 1i64).ret();
        let id = f.finish();
        let mut prog = pb.finish(id);
        // The builder grows num_regs to cover every register it sees, so
        // corrupt the declared count afterwards: the micro-op now names a
        // register outside its procedure's register window, exactly the
        // malformed-program shape the run loop's unchecked register file
        // relies on decode rejecting.
        prog.procedures_mut()[0].num_regs = 1;
        let layout = CodeLayout::new(&prog, 0x10000);
        let _ = DecodedProgram::new(&prog, &layout);
    }
}
