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
    /// Indirect call through a register holding a procedure index.
    CallIndirect {
        target: Reg,
        args: TableRange,
        ret: Option<Reg>,
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
}

// The whole point of the side tables: the arena the dispatch loop
// streams stays at 24 bytes per micro-op.
const _: () = assert!(std::mem::size_of::<MicroOp>() <= 24);

impl MicroOp {
    /// Short stable name, the key the meta-profile records frequencies
    /// under (`uop.<mnemonic>` counters).
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
                    ops.push(lower_instr(i, &mut prof_ops, &mut call_args));
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
        }
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
            MicroOp::CallIndirect { target, args, ret } => {
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
        }
    }
}

fn lower_instr(i: &Instr, prof_ops: &mut Vec<ProfOp>, call_args: &mut Vec<Operand>) -> MicroOp {
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
                CallTarget::Indirect(r) => MicroOp::CallIndirect {
                    target: *r,
                    args,
                    ret: *ret,
                },
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
