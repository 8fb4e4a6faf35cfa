//! Differential testing: the predecoded micro-op interpreter and the
//! tree-walking reference interpreter are two implementations of the
//! same machine, and every profile they produce must be bit-identical —
//! metrics, `%pic` registers, flow-profile bytes, CCT bytes, and
//! per-block execution counts. This is what licenses every hot-path
//! optimization in the predecoded pipeline: any divergence the
//! optimizations introduce fails here, over the whole workload suite
//! and every profiling configuration.

#![cfg(feature = "reference")]

use pp::ir::HwEvent;
use pp::profiler::{Profiler, RunConfig};
use pp::usim::{Machine, MachineConfig, NullSink};

const EVENTS: (HwEvent, HwEvent) = (HwEvent::Insts, HwEvent::DcMiss);

/// Every profiling configuration the profiler supports, including the
/// uninstrumented base.
fn configs() -> Vec<RunConfig> {
    vec![
        RunConfig::Base,
        RunConfig::EdgeFreq,
        RunConfig::FlowFreq,
        RunConfig::FlowHw { events: EVENTS },
        RunConfig::ContextHw { events: EVENTS },
        RunConfig::ContextFlow,
        RunConfig::CombinedHw { events: EVENTS },
    ]
}

fn flow_bytes(flow: &pp::profiler::FlowProfile) -> Vec<u8> {
    let mut v = Vec::new();
    flow.write_to(&mut v).expect("serialize flow profile");
    v
}

fn cct_bytes(cct: &pp::cct::CctRuntime) -> Vec<u8> {
    let mut v = Vec::new();
    pp::cct::write_cct(cct, &mut v).expect("serialize cct");
    v
}

/// Asserts two runs (from any interpreter/fusion combination) agree on
/// machine state and serialized profiles, byte for byte.
fn assert_runs_identical(a: &pp::profiler::RunOutcome, b: &pp::profiler::RunOutcome, ctx: &str) {
    assert_eq!(a.machine.metrics, b.machine.metrics, "metrics: {ctx}");
    assert_eq!(a.machine.pics, b.machine.pics, "%pic registers: {ctx}");
    assert_eq!(
        a.machine.counter_note, b.machine.counter_note,
        "wrap-reconciliation note: {ctx}"
    );
    assert_eq!(a.machine.uops, b.machine.uops, "uops: {ctx}");
    assert_eq!(
        a.machine.resident_pages, b.machine.resident_pages,
        "resident pages: {ctx}"
    );
    assert_eq!(
        a.machine.code_bytes, b.machine.code_bytes,
        "code bytes: {ctx}"
    );

    assert_eq!(a.flow.is_some(), b.flow.is_some(), "flow presence: {ctx}");
    if let (Some(fa), Some(fb)) = (&a.flow, &b.flow) {
        assert_eq!(flow_bytes(fa), flow_bytes(fb), "flow bytes: {ctx}");
    }
    assert_eq!(a.cct.is_some(), b.cct.is_some(), "cct presence: {ctx}");
    if let (Some(ca), Some(cb)) = (&a.cct, &b.cct) {
        assert_eq!(cct_bytes(ca), cct_bytes(cb), "cct bytes: {ctx}");
    }
}

/// The tentpole guarantee: for every workload in the suite and every
/// configuration, the fused interpreter, the unfused interpreter, and
/// the tree-walking reference produce the same machine state and the
/// same serialized profiles, byte for byte. Superinstruction fusion is
/// a three-way cross-check here: fused vs reference AND unfused vs
/// fused, so a fusion bug can't hide behind a matching reference bug.
#[test]
fn every_profile_is_bit_identical_across_interpreters() {
    let profiler = Profiler::default();
    let unfused = Profiler::new(MachineConfig {
        no_fuse: true,
        ..MachineConfig::default()
    });
    for w in pp::workloads::suite(0.05) {
        for config in configs() {
            let ctx = format!("{} under {config}", w.name);
            let a = profiler
                .run(&w.program, config)
                .unwrap_or_else(|e| panic!("optimized {ctx}: {e}"));
            let b = profiler
                .run_reference(&w.program, config)
                .unwrap_or_else(|e| panic!("reference {ctx}: {e}"));
            let u = unfused
                .run(&w.program, config)
                .unwrap_or_else(|e| panic!("unfused {ctx}: {e}"));
            assert!(a.fault.is_none(), "optimized {ctx} faulted");
            assert!(b.fault.is_none(), "reference {ctx} faulted");
            assert!(u.fault.is_none(), "unfused {ctx} faulted");

            assert_runs_identical(&a, &b, &format!("fused vs reference, {ctx}"));
            assert_runs_identical(&u, &a, &format!("unfused vs fused, {ctx}"));
        }
    }
}

/// The observability layer inherits the determinism guarantee: every
/// metric an observed run records — the sink's hot-path counters and
/// everything `observe::record_outcome` derives afterwards — is a
/// function of simulated state only, so the registry snapshot is
/// byte-identical across the two interpreters, and across repeated
/// runs of the same one.
/// Drops the counters that describe the *host* interpreter's own fast
/// paths (superinstruction dispatch, the indirect-call inline cache).
/// They are engine-local by design — the tree-walking reference has no
/// dispatch loop to instrument — so cross-interpreter comparison strips
/// them; everything else must still match byte for byte.
fn strip_engine_local(snapshot: &str) -> String {
    snapshot
        .lines()
        .filter(|l| !l.starts_with("counter dispatch.") && !l.starts_with("counter call.ic_"))
        .flat_map(|l| [l, "\n"])
        .collect()
}

#[test]
fn metrics_snapshots_are_identical_across_interpreters() {
    let profiler = Profiler::default();
    let config = RunConfig::CombinedHw { events: EVENTS };
    for w in pp::workloads::suite(0.05) {
        let observed = |run: &dyn Fn(&mut pp::obs::Registry) -> pp::profiler::RunOutcome| {
            let mut reg = pp::obs::Registry::new();
            let outcome = run(&mut reg);
            pp::profiler::observe::record_outcome(&mut reg, &outcome);
            reg
        };
        let a = observed(&|reg| {
            profiler
                .run_observed(&w.program, config, reg)
                .expect("optimized")
        });
        let b = observed(&|reg| {
            profiler
                .run_reference_observed(&w.program, config, reg)
                .expect("reference")
        });
        let rerun = observed(&|reg| {
            profiler
                .run_observed(&w.program, config, reg)
                .expect("optimized rerun")
        });
        assert!(!a.is_empty(), "{}: observed run recorded nothing", w.name);
        assert_eq!(
            strip_engine_local(&a.snapshot()),
            strip_engine_local(&b.snapshot()),
            "interpreters: {}",
            w.name
        );
        // The engine-local counters are still deterministic: a rerun of
        // the same interpreter reproduces them (and everything else)
        // byte for byte, snapshot and JSON alike.
        assert_eq!(a.snapshot(), rerun.snapshot(), "rerun: {}", w.name);
        assert_eq!(a.to_json(), rerun.to_json(), "json rerun: {}", w.name);
        // And the fused fast path ran exactly when fusion is on: the CI
        // pass with `PP_NO_FUSE=1` must record no fused dispatch at all.
        let fusion_on = std::env::var_os("PP_NO_FUSE").is_none_or(|v| v == "0");
        assert_eq!(
            a.snapshot().contains("counter dispatch.fused"),
            fusion_on,
            "{}: fused dispatches recorded must equal fusion on ({fusion_on})",
            w.name
        );
    }
}

/// Control flow itself is identical: with block tracing on, both
/// interpreters count every `(procedure, block)` execution the same.
#[test]
fn block_counts_are_identical_across_interpreters() {
    let config = MachineConfig {
        trace_blocks: true,
        ..MachineConfig::default()
    };
    for w in pp::workloads::suite(0.05) {
        let mut m = Machine::new(&w.program, config);
        m.run(&mut NullSink)
            .unwrap_or_else(|e| panic!("optimized {}: {e}", w.name));
        let mut r = pp::usim::reference::ReferenceMachine::new(&w.program, config);
        r.run(&mut NullSink)
            .unwrap_or_else(|e| panic!("reference {}: {e}", w.name));
        // The reference records only executed blocks; the dense view
        // filters zero counts, so the maps line up key for key.
        assert_eq!(&m.block_counts(), r.block_counts(), "{}", w.name);
    }
}
