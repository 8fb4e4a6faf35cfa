//! The profiling sink wiring the machine to the profile structures.
//!
//! `PpSink` is generic over a [`Recorder`] so the observability layer
//! can watch the CCT's enter-path behavior (fast hits vs. list scans
//! vs. new records, ancestor-walk depths, move-to-front promotions)
//! without touching the hot loop when it is off. Per-event facts go
//! into the plain fields of a `Tally`, never into the recorder; the
//! tally is folded into the recorder once, after the run
//! (`PpSink::fold`). Under the default [`NoopRecorder`] every tally
//! update is behind the constant `R::ENABLED` and compiles away,
//! leaving the unobserved sink what it was before this layer existed.

use pp_cct::{CctRuntime, EnterOutcome};
use pp_ir::prof::PathTable;
use pp_ir::{CallSiteId, ProcId};
use pp_obs::{Hist, NoopRecorder, Recorder};
use pp_usim::{CctTransition, ProfSink};

use crate::profile::FlowProfile;

/// The real sink: flow counter tables plus (optionally) a CCT runtime,
/// plus a (default no-op) recorder for internals metrics.
#[derive(Debug, Default)]
pub(crate) struct PpSink<R: Recorder = NoopRecorder> {
    pub(crate) flow: Option<FlowProfile>,
    pub(crate) cct: Option<CctRuntime>,
    pub(crate) recorder: R,
    tally: Tally,
}

/// The events an observed run counts as they happen: the ones that
/// cannot be reconstructed from the finished profile.
#[derive(Debug, Default)]
struct Tally {
    fast_hit: u64,
    list_hit: u64,
    mtf_promotions: u64,
    new_record: u64,
    recursive: u64,
    overflow: u64,
    unwinds: u64,
    ic_hit: u64,
    ic_miss: u64,
    list_scan: Hist,
    ancestor_walk: Hist,
}

impl Tally {
    fn enter(&mut self, outcome: EnterOutcome) {
        match outcome {
            EnterOutcome::FastHit => self.fast_hit += 1,
            EnterOutcome::ListHit { scanned } => {
                self.list_hit += 1;
                self.list_scan.observe(u64::from(scanned));
                // The hit cell is moved to the list head whenever it
                // wasn't already there.
                if scanned > 1 {
                    self.mtf_promotions += 1;
                }
            }
            EnterOutcome::NewRecord { ancestors_walked } => {
                self.new_record += 1;
                self.ancestor_walk.observe(u64::from(ancestors_walked));
            }
            EnterOutcome::RecursiveBackedge { ancestors_walked } => {
                self.recursive += 1;
                self.ancestor_walk.observe(u64::from(ancestors_walked));
            }
            EnterOutcome::Overflow { ancestors_walked } => {
                self.overflow += 1;
                self.ancestor_walk.observe(u64::from(ancestors_walked));
            }
        }
    }
}

impl<R: Recorder> PpSink<R> {
    pub(crate) fn new(flow: Option<FlowProfile>, cct: Option<CctRuntime>, recorder: R) -> Self {
        PpSink {
            flow,
            cct,
            recorder,
            tally: Tally::default(),
        }
    }

    /// Folds the run's internals into the recorder, once, after the
    /// run: the tally, plus the path-event counts, which are the
    /// frequency sums of the finished flow profile and CCT path stores
    /// (every path event bumps exactly one frequency by one). Zero
    /// counters are not recorded, as a per-event recorder never saw
    /// them.
    pub(crate) fn fold(&mut self) {
        if !R::ENABLED {
            return;
        }
        let t = &self.tally;
        let flow_events = self
            .flow
            .as_ref()
            .map_or(0, |f| f.iter_paths().map(|(_, _, c)| c.freq).sum());
        let cct_events = self.cct.as_ref().map_or(0, |cct| {
            cct.record_ids()
                .flat_map(|id| cct.record(id).paths())
                .map(|(_, c)| c.freq)
                .sum()
        });
        let rec = &mut self.recorder;
        for (name, n) in [
            ("flow.path_events", flow_events),
            ("cct.path_events", cct_events),
            ("cct.enter.fast_hit", t.fast_hit),
            ("cct.enter.list_hit", t.list_hit),
            ("cct.enter.mtf_promotions", t.mtf_promotions),
            ("cct.enter.new_record", t.new_record),
            ("cct.enter.recursive", t.recursive),
            ("cct.enter.overflow", t.overflow),
            ("cct.unwinds", t.unwinds),
            ("call.ic_hit", t.ic_hit),
            ("call.ic_miss", t.ic_miss),
        ] {
            if n > 0 {
                rec.counter(name, n);
            }
        }
        rec.histogram("cct.enter.list_scan", &t.list_scan);
        rec.histogram("cct.enter.ancestor_walk", &t.ancestor_walk);
    }
}

impl<R: Recorder> ProfSink for PpSink<R> {
    fn path_event(&mut self, table: PathTable, sum: u64, pics: Option<(u64, u64)>) {
        if let Some(flow) = &mut self.flow {
            flow.record(table.proc, sum, pics);
        }
    }

    fn cct_enter(&mut self, proc: ProcId) -> CctTransition {
        let Some(cct) = &mut self.cct else {
            return CctTransition::default();
        };
        let eff = cct.enter(proc.0);
        if R::ENABLED {
            self.tally.enter(eff.outcome);
        }
        let (extra_uops, slot_written, record_writes) = match eff.outcome {
            EnterOutcome::FastHit => (0, false, 0),
            EnterOutcome::ListHit { scanned } => (2 * scanned, true, 0),
            EnterOutcome::NewRecord { ancestors_walked } => (10 + 2 * ancestors_walked, true, 4),
            EnterOutcome::RecursiveBackedge { ancestors_walked } => (2 * ancestors_walked, true, 0),
            // Cap hit: the failed ancestor walk plus a hash probe for the
            // shared overflow record.
            EnterOutcome::Overflow { ancestors_walked } => (4 + 2 * ancestors_walked, true, 0),
        };
        CctTransition {
            extra_uops,
            slot_addr: eff.slot_addr,
            record_addr: eff.record_addr,
            slot_written,
            record_writes,
        }
    }

    fn cct_call(&mut self, site: CallSiteId, path_prefix: Option<u64>) {
        if let Some(cct) = &mut self.cct {
            cct.prepare_call(site.0, path_prefix);
        }
    }

    fn cct_exit(&mut self) {
        if let Some(cct) = &mut self.cct {
            cct.exit();
        }
    }

    fn cct_metric_enter(&mut self, pics: (u64, u64)) {
        if let Some(cct) = &mut self.cct {
            cct.metric_enter(pics);
        }
    }

    fn cct_metric_exit(&mut self, pics: (u64, u64)) -> u64 {
        match &mut self.cct {
            Some(cct) => cct.metric_exit(pics),
            None => 0,
        }
    }

    fn cct_metric_tick(&mut self, pics: (u64, u64)) -> u64 {
        match &mut self.cct {
            Some(cct) => cct.metric_tick(pics),
            None => 0,
        }
    }

    fn cct_path_event(&mut self, sum: u64, pics: Option<(u64, u64)>) -> u64 {
        match &mut self.cct {
            Some(cct) => cct.path_event(sum, pics),
            None => 0,
        }
    }

    fn unwind(&mut self, depth: usize) {
        if let Some(cct) = &mut self.cct {
            if R::ENABLED {
                self.tally.unwinds += 1;
            }
            cct.unwind_to(depth);
        }
    }

    #[inline(always)]
    fn icall_cache(&mut self, hit: bool) {
        if R::ENABLED {
            if hit {
                self.tally.ic_hit += 1;
            } else {
                self.tally.ic_miss += 1;
            }
        }
    }
}
