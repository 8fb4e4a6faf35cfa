//! Meta-profiling: the interpreter profiles *itself*.
//!
//! The paper's premise is that flow-sensitive profiles tell you exactly
//! where a program spends its time; this module turns that instrument on
//! the dispatch loop. A [`MetaProfile`] is the dynamic micro-op mix of a
//! program (or a whole workload suite): how often each micro-op
//! variant dispatched, and how often each *adjacent pair* dispatched
//! back-to-back within a block. The pair table is exactly the fusion
//! candidate set — decode-time superinstruction fusion never crosses a
//! block boundary, so a pair split across blocks is never a candidate
//! and is never counted.
//!
//! Collection is exact and zero-perturbation: it replays the program on
//! an *unfused* machine with block tracing on, then projects the dense
//! per-block execution counts through the static per-block op sequences
//! (`dynamic count of op i in block b` = `executions of b` × `static
//! occurrences`). No hot-path counter is touched; the run being measured
//! is byte-for-byte the run the profiles describe.
//!
//! The suite-wide profile is persisted (via a [`Recorder`], as
//! `uop.<mnemonic>` / `pair.<a>+<b>` counters) into the checked-in
//! artifact `crates/usim/meta/uop_meta.json`; regenerate it with
//! `pp bench --emit-meta` after changing the workload suite, the
//! instrumentation, or the lowering. The dispatch `match` layout, the
//! hot/cold handler split, and the fusion patterns in
//! [`crate::DecodedProgram`] are all derived from it (see DESIGN.md §13).

use std::collections::BTreeMap;

use pp_ir::Program;
use pp_obs::Recorder;

use crate::config::MachineConfig;
use crate::decode::MicroOp;
use crate::machine::{ExecError, Machine};
use crate::sink::NullSink;

/// The dynamic micro-op mix of one or more runs: per-variant dispatch
/// counts and within-block adjacent-pair counts, keyed by the stable
/// micro-op mnemonics (`"mov"`, `"bini"`, `"branch"`, ...).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetaProfile {
    /// `mnemonic -> dynamic dispatches`.
    pub uops: BTreeMap<&'static str, u64>,
    /// `(first, second) -> dynamic back-to-back dispatches` (same block,
    /// immediately adjacent — the superinstruction candidate set).
    pub pairs: BTreeMap<(&'static str, &'static str), u64>,
}

impl MetaProfile {
    /// Collects the exact micro-op mix of `program` by replaying it on
    /// an unfused, block-traced machine and projecting block counts
    /// through the static block bodies.
    ///
    /// # Errors
    ///
    /// Propagates any [`ExecError`] from the measurement run.
    pub fn collect(program: &Program, config: MachineConfig) -> Result<MetaProfile, ExecError> {
        let config = MachineConfig {
            trace_blocks: true,
            // The meta-profile describes the *unfused* op stream — it is
            // the input that decides what to fuse.
            no_fuse: true,
            ..config
        };
        let mut m = Machine::new(program, config);
        m.run(&mut NullSink)?;
        let mut p = MetaProfile::default();
        p.accumulate(&m);
        Ok(p)
    }

    /// Projects a finished block-traced machine's counts into this
    /// profile (adds to whatever is already accumulated).
    fn accumulate(&mut self, m: &Machine<'_>) {
        let d = m.decoded();
        for (bi, &c) in m.block_counts_dense().iter().enumerate() {
            if c == 0 {
                continue;
            }
            let ops = &d.ops[d.block_ops(bi)];
            for (i, op) in ops.iter().enumerate() {
                *self.uops.entry(op.mnemonic()).or_default() += c;
                if let Some(next) = ops.get(i + 1) {
                    *self
                        .pairs
                        .entry((op.mnemonic(), next.mnemonic()))
                        .or_default() += c;
                }
            }
        }
    }

    /// Folds `other` into `self` (suite-wide aggregation).
    pub fn merge(&mut self, other: &MetaProfile) {
        for (k, v) in &other.uops {
            *self.uops.entry(k).or_default() += v;
        }
        for (k, v) in &other.pairs {
            *self.pairs.entry(*k).or_default() += v;
        }
    }

    /// Total dynamic dispatches.
    pub fn total(&self) -> u64 {
        self.uops.values().sum()
    }

    /// Records the profile as `uop.<mnemonic>` and `pair.<a>+<b>`
    /// counters — the shape the checked-in `uop_meta.json` holds.
    pub fn record_to<R: Recorder>(&self, rec: &mut R) {
        for (name, n) in &self.uops {
            rec.counter(counter_name("uop.", name, ""), *n);
        }
        for ((a, b), n) in &self.pairs {
            rec.counter(counter_name("pair.", a, b), *n);
        }
    }

    /// The dispatch-frequency ranking, hottest first (ties broken by
    /// name for determinism).
    pub fn ranked_uops(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.uops.iter().map(|(k, n)| (*k, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// The pair ranking, hottest first.
    pub fn ranked_pairs(&self) -> Vec<((&'static str, &'static str), u64)> {
        let mut v: Vec<_> = self.pairs.iter().map(|(k, n)| (*k, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// The host interpreter's engine counters for one run: how often each
/// superinstruction and the outlined cold handlers dispatched.
///
/// Nothing counts these during the run. They are projected afterwards
/// from the dense block counts through each block's static micro-ops, as
/// [`MetaProfile`] projects its mix, with the corrections the machine
/// keeps on its cold paths for blocks a longjmp or an error left
/// part-way and for blocks a longjmp resumed mid-block. The projection
/// is exact only for a machine run with [`MachineConfig::trace_blocks`]
/// set; without it every count is zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Fused mnemonic (`"bini+branch"`, ...) -> dispatches; only
    /// variants that dispatched at least once.
    pub fused: BTreeMap<&'static str, u64>,
    /// Dispatches of the outlined counter-control and non-local-return
    /// handlers.
    pub cold_taken: u64,
}

impl EngineCounters {
    /// Projects a finished block-traced machine's counts.
    pub(crate) fn project(m: &Machine<'_>) -> EngineCounters {
        let d = m.decoded();
        let mut out = EngineCounters::default();
        // Corrections are negative where a block was cut short. Each
        // final total is a true (non-negative) count, so two's-complement
        // wrapping sums come out exact.
        let mut add = |ops: &[MicroOp], n: u64| {
            for op in ops {
                if op.is_fused() {
                    let c = out.fused.entry(op.mnemonic()).or_default();
                    *c = c.wrapping_add(n);
                } else if op.is_cold() {
                    out.cold_taken = out.cold_taken.wrapping_add(n);
                }
            }
        };
        for (bi, &c) in m.block_counts_dense().iter().enumerate() {
            if c > 0 {
                add(&d.ops[d.block_ops(bi)], c);
            }
        }
        for (&(block, from), &n) in m.suffix_adjustments() {
            let end = d.block_ops(block as usize).end;
            add(&d.ops[from as usize..end], n as u64);
        }
        out.fused.retain(|_, n| *n > 0);
        out
    }

    /// Total superinstruction dispatches.
    pub fn fused_hit(&self) -> u64 {
        self.fused.values().sum()
    }

    /// Records the counters as `dispatch.fused_hit`,
    /// `dispatch.fused.<mnemonic>` and `dispatch.cold_taken`; zero
    /// counters are not recorded.
    pub fn record_to<R: Recorder>(&self, rec: &mut R) {
        let hits = self.fused_hit();
        if hits > 0 {
            rec.counter("dispatch.fused_hit", hits);
        }
        for (name, n) in &self.fused {
            rec.counter(counter_name("dispatch.fused.", name, ""), *n);
        }
        if self.cold_taken > 0 {
            rec.counter("dispatch.cold_taken", self.cold_taken);
        }
    }
}

/// Interns a counter name. Registry counters are keyed by `&'static
/// str`; the mnemonic combinations are a small bounded set (at most
/// `variants²`), so leaking each distinct name once is fine.
fn counter_name(prefix: &str, a: &'static str, b: &'static str) -> &'static str {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let key = if b.is_empty() {
        format!("{prefix}{a}")
    } else {
        format!("{prefix}{a}+{b}")
    };
    let mut map = INTERNED
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("intern table poisoned");
    if let Some(s) = map.get(&key) {
        return s;
    }
    let leaked: &'static str = Box::leak(key.clone().into_boxed_str());
    map.insert(key, leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ir::build::ProgramBuilder;

    fn loop_program() -> Program {
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
        pb.finish(id)
    }

    #[test]
    fn counts_are_exact_block_projections() {
        let p = loop_program();
        let meta = MetaProfile::collect(&p, MachineConfig::default()).expect("collect");
        // entry once: mov, jump; header 11×: bini(cmp), branch;
        // body 10×: bini(add), jump; exit once: ret.
        assert_eq!(meta.uops["mov"], 1);
        assert_eq!(meta.uops["bini"], 21);
        assert_eq!(meta.uops["branch"], 11);
        assert_eq!(meta.uops["jump"], 11);
        assert_eq!(meta.uops["ret"], 1);
        assert_eq!(meta.pairs[&("bini", "branch")], 11);
        assert_eq!(meta.pairs[&("bini", "jump")], 10);
        assert_eq!(meta.pairs[&("mov", "jump")], 1);
        // Pairs never cross block boundaries: the header's branch and the
        // body's add are adjacent in the arena but not in a block.
        assert!(!meta.pairs.contains_key(&("branch", "bini")));
        assert_eq!(meta.total(), 45);
    }

    #[test]
    fn merge_sums_and_recording_is_deterministic() {
        let p = loop_program();
        let one = MetaProfile::collect(&p, MachineConfig::default()).expect("collect");
        let mut two = one.clone();
        two.merge(&one);
        assert_eq!(two.total(), 2 * one.total());
        assert_eq!(two.uops["bini"], 42);

        let mut r1 = pp_obs::Registry::new();
        let mut r2 = pp_obs::Registry::new();
        two.record_to(&mut r1);
        two.record_to(&mut r2);
        assert_eq!(r1.snapshot(), r2.snapshot());
        assert!(r1.snapshot().contains("counter pair.bini+branch 22"));
        assert!(r1.snapshot().contains("counter uop.jump 22"));
    }
}
