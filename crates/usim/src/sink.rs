//! The profiling sink: where the machine delivers the *semantics* of
//! profiling pseudo-ops.
//!
//! The machine charges each op's cost (micro-ops, cache traffic) itself;
//! the sink maintains the logical profile — path counter tables, the
//! calling context tree — exactly. `pp-core` implements the sink by wiring
//! in `pp-cct` and its path tables; [`NullSink`] ignores everything (base
//! runs have no profiling ops anyway); [`RecordingSink`] logs events for
//! tests.

use pp_ir::prof::PathTable;
use pp_ir::{CallSiteId, ProcId};

/// Cost-relevant facts about a CCT transition, returned by
/// [`ProfSink::cct_enter`] so the machine can charge realistic work.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CctTransition {
    /// Micro-ops beyond the fast path (list scans, ancestor walks, record
    /// initialization).
    pub extra_uops: u32,
    /// Address of the callee slot that was read.
    pub slot_addr: u64,
    /// Address of the resolved call record.
    pub record_addr: u64,
    /// True if the slot was written (first use, list push, move-to-front).
    pub slot_written: bool,
    /// Number of 8-byte initialization stores to the record.
    pub record_writes: u8,
}

/// Receives profiling events from the machine.
///
/// All methods have no-op defaults so simple sinks only override what they
/// track. Address-returning methods return 0 by default, which the machine
/// maps to "no memory traffic to model".
pub trait ProfSink {
    /// A completed intraprocedural path: `count[sum]` in `table` should be
    /// bumped, with `pics` holding the two counter values measured over
    /// the path when hardware metrics are on. Counter values are the
    /// machine's wide (wrap-reconciled) shadow readings; the low 32 bits
    /// are what the architectural `%pic` registers held.
    fn path_event(&mut self, table: PathTable, sum: u64, pics: Option<(u64, u64)>) {
        let _ = (table, sum, pics);
    }

    /// Procedure entry (context profiling).
    fn cct_enter(&mut self, proc: ProcId) -> CctTransition {
        let _ = proc;
        CctTransition::default()
    }

    /// About to call through `site`; `path_prefix` carries the current
    /// path register when flow profiling is also active.
    fn cct_call(&mut self, site: CallSiteId, path_prefix: Option<u64>) {
        let _ = (site, path_prefix);
    }

    /// Procedure exit (context profiling).
    fn cct_exit(&mut self) {}

    /// Context+HW: counter snapshot at entry.
    fn cct_metric_enter(&mut self, pics: (u64, u64)) {
        let _ = pics;
    }

    /// Context+HW: accumulate deltas at exit. Returns the record address
    /// for traffic modeling.
    fn cct_metric_exit(&mut self, pics: (u64, u64)) -> u64 {
        let _ = pics;
        0
    }

    /// Context+HW: accumulate and re-snapshot on a loop backedge.
    fn cct_metric_tick(&mut self, pics: (u64, u64)) -> u64 {
        let _ = pics;
        0
    }

    /// Combined mode: a completed path attributed to the current call
    /// record. Returns the counter entry's address.
    fn cct_path_event(&mut self, sum: u64, pics: Option<(u64, u64)>) -> u64 {
        let _ = (sum, pics);
        0
    }

    /// A non-local return unwound the activation stack to `depth` live
    /// activations.
    fn unwind(&mut self, depth: usize) {
        let _ = depth;
    }

    /// An indirect call looked up its site's inline cache: `hit` when
    /// the cached target was reused, `false` when the target was
    /// validated and installed. This describes the *host* interpreter's
    /// fast path, not the simulated machine — it never affects profiles
    /// or metrics. It is the one engine event that cannot be derived
    /// from block counts after the run; the other engine counters are
    /// ([`Machine::engine_counters`](crate::Machine::engine_counters)).
    #[inline(always)]
    fn icall_cache(&mut self, hit: bool) {
        let _ = hit;
    }
}

/// Forwarding impl so a `&mut S` (including `&mut dyn ProfSink`) is
/// itself a sink — callers can hand the generic run loop either a
/// concrete sink (monomorphized, inlined delivery) or a trait object.
impl<S: ProfSink + ?Sized> ProfSink for &mut S {
    fn path_event(&mut self, table: PathTable, sum: u64, pics: Option<(u64, u64)>) {
        (**self).path_event(table, sum, pics);
    }

    fn cct_enter(&mut self, proc: ProcId) -> CctTransition {
        (**self).cct_enter(proc)
    }

    fn cct_call(&mut self, site: CallSiteId, path_prefix: Option<u64>) {
        (**self).cct_call(site, path_prefix);
    }

    fn cct_exit(&mut self) {
        (**self).cct_exit();
    }

    fn cct_metric_enter(&mut self, pics: (u64, u64)) {
        (**self).cct_metric_enter(pics);
    }

    fn cct_metric_exit(&mut self, pics: (u64, u64)) -> u64 {
        (**self).cct_metric_exit(pics)
    }

    fn cct_metric_tick(&mut self, pics: (u64, u64)) -> u64 {
        (**self).cct_metric_tick(pics)
    }

    fn cct_path_event(&mut self, sum: u64, pics: Option<(u64, u64)>) -> u64 {
        (**self).cct_path_event(sum, pics)
    }

    fn unwind(&mut self, depth: usize) {
        (**self).unwind(depth);
    }

    fn icall_cache(&mut self, hit: bool) {
        (**self).icall_cache(hit);
    }
}

/// A sink that ignores every event.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ProfSink for NullSink {}

/// An event recorded by [`RecordingSink`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SinkEvent {
    /// From [`ProfSink::path_event`].
    Path {
        /// Procedure whose table was hit.
        proc: ProcId,
        /// Path sum.
        sum: u64,
        /// Counter values, when metrics were measured.
        pics: Option<(u64, u64)>,
    },
    /// From [`ProfSink::cct_enter`].
    Enter(ProcId),
    /// From [`ProfSink::cct_call`].
    Call(CallSiteId, Option<u64>),
    /// From [`ProfSink::cct_exit`].
    Exit,
    /// From [`ProfSink::cct_metric_enter`].
    MetricEnter((u64, u64)),
    /// From [`ProfSink::cct_metric_exit`].
    MetricExit((u64, u64)),
    /// From [`ProfSink::cct_metric_tick`].
    MetricTick((u64, u64)),
    /// From [`ProfSink::cct_path_event`].
    CctPath(u64, Option<(u64, u64)>),
    /// From [`ProfSink::unwind`].
    Unwind(usize),
}

/// A sink that records every event, for tests.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// Events in arrival order.
    pub events: Vec<SinkEvent>,
}

impl ProfSink for RecordingSink {
    fn path_event(&mut self, table: PathTable, sum: u64, pics: Option<(u64, u64)>) {
        self.events.push(SinkEvent::Path {
            proc: table.proc,
            sum,
            pics,
        });
    }

    fn cct_enter(&mut self, proc: ProcId) -> CctTransition {
        self.events.push(SinkEvent::Enter(proc));
        CctTransition::default()
    }

    fn cct_call(&mut self, site: CallSiteId, path_prefix: Option<u64>) {
        self.events.push(SinkEvent::Call(site, path_prefix));
    }

    fn cct_exit(&mut self) {
        self.events.push(SinkEvent::Exit);
    }

    fn cct_metric_enter(&mut self, pics: (u64, u64)) {
        self.events.push(SinkEvent::MetricEnter(pics));
    }

    fn cct_metric_exit(&mut self, pics: (u64, u64)) -> u64 {
        self.events.push(SinkEvent::MetricExit(pics));
        0
    }

    fn cct_metric_tick(&mut self, pics: (u64, u64)) -> u64 {
        self.events.push(SinkEvent::MetricTick(pics));
        0
    }

    fn cct_path_event(&mut self, sum: u64, pics: Option<(u64, u64)>) -> u64 {
        self.events.push(SinkEvent::CctPath(sum, pics));
        0
    }

    fn unwind(&mut self, depth: usize) {
        self.events.push(SinkEvent::Unwind(depth));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ir::prof::CounterStorage;

    #[test]
    fn null_sink_defaults_are_inert() {
        let mut s = NullSink;
        let t = s.cct_enter(ProcId(0));
        assert_eq!(t, CctTransition::default());
        assert_eq!(s.cct_metric_exit((1, 2)), 0);
        assert_eq!(s.cct_path_event(3, None), 0);
    }

    #[test]
    fn recording_sink_orders_events() {
        let mut s = RecordingSink::default();
        s.cct_enter(ProcId(1));
        s.path_event(
            PathTable {
                proc: ProcId(1),
                base: 0x4000,
                storage: CounterStorage::Array,
            },
            5,
            Some((10, 20)),
        );
        s.cct_exit();
        assert_eq!(
            s.events,
            vec![
                SinkEvent::Enter(ProcId(1)),
                SinkEvent::Path {
                    proc: ProcId(1),
                    sum: 5,
                    pics: Some((10, 20))
                },
                SinkEvent::Exit,
            ]
        );
    }
}
