//! Differential testing: the predecoded micro-op interpreter and the
//! tree-walking reference interpreter are two implementations of the
//! same machine, and every profile they produce must be bit-identical —
//! metrics, `%pic` registers, flow-profile bytes, CCT bytes, and
//! per-block execution counts. This is what licenses every hot-path
//! optimization in the predecoded pipeline: any divergence the
//! optimizations introduce fails here, over the whole workload suite,
//! over generated programs, and under every profiling configuration.

#![cfg(feature = "reference")]

use pp::ir::{HwEvent, Program};
use pp::profiler::{Profiler, RunConfig};
use pp::usim::{Machine, MachineConfig, NullSink};
use pp::workloads::{random_program, RandomSpec};

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

/// Asserts two runs (one per interpreter) agree on machine state and
/// serialized profiles, byte for byte.
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

/// Runs `program` under every configuration on both interpreters,
/// asserts the outcomes identical, and returns how many runs faulted.
fn compare_under_every_config(profiler: &Profiler, program: &Program, name: &str) -> usize {
    let mut faulted = 0;
    for config in configs() {
        let ctx = format!("{name} under {config}");
        let a = profiler
            .run(program, config)
            .unwrap_or_else(|e| panic!("optimized {ctx}: {e}"));
        let b = profiler
            .run_reference(program, config)
            .unwrap_or_else(|e| panic!("reference {ctx}: {e}"));
        assert_eq!(a.fault, b.fault, "fault: {ctx}");
        assert_runs_identical(&a, &b, &ctx);
        faulted += usize::from(a.fault.is_some());
    }
    faulted
}

/// The tentpole guarantee: for every workload in the suite and every
/// configuration, the predecoded interpreter and the tree-walking
/// reference produce the same machine state and the same serialized
/// profiles, byte for byte.
#[test]
fn every_profile_is_bit_identical_across_interpreters() {
    let profiler = Profiler::default();
    for w in pp::workloads::suite(0.05) {
        let faulted = compare_under_every_config(&profiler, &w.program, &w.name);
        assert_eq!(faulted, 0, "{} faulted", w.name);
    }
}

/// Aborted runs agree too: a micro-op budget stops both interpreters
/// before the same micro-op, so the partial profiles match byte for
/// byte.
#[test]
fn aborted_runs_are_bit_identical_across_interpreters() {
    let profiler = Profiler::new(MachineConfig {
        max_instructions: 123_457,
        ..MachineConfig::default()
    });
    for w in pp::workloads::suite(0.2) {
        if ["099.go", "134.perl", "147.vortex"].contains(&w.name.as_str()) {
            let faulted = compare_under_every_config(&profiler, &w.program, &w.name);
            assert_eq!(faulted, configs().len(), "{} ran to completion", w.name);
        }
    }
}

/// The same guarantee beyond the suite: seeded programs from the
/// `RandomSpec` generator (recursion, indirect calls, nested loops)
/// under every configuration, including how and where a run faults.
#[test]
fn generated_programs_are_bit_identical_across_interpreters() {
    let spec = RandomSpec {
        num_procs: 4,
        max_depth: 3,
        max_stmts: 4,
        max_trip: 4,
    };
    let profiler = Profiler::default();
    for seed in 0..30u64 {
        let prog = random_program(seed, &spec);
        compare_under_every_config(&profiler, &prog, &format!("seed {seed}"));
    }
}

/// Drops the counters that describe the *host* interpreter's own
/// dispatch loop (`dispatch.cold_taken`). They are engine-local by
/// design — the tree-walking reference has no dispatch loop to
/// instrument — so cross-interpreter comparison strips them; everything
/// else must still match byte for byte.
fn strip_engine_local(snapshot: &str) -> String {
    snapshot
        .lines()
        .filter(|l| !l.starts_with("counter dispatch."))
        .flat_map(|l| [l, "\n"])
        .collect()
}

/// The observability layer inherits the determinism guarantee: every
/// metric an observed run records — the sink's hot-path counters and
/// everything `observe::record_outcome` derives afterwards — is a
/// function of simulated state only, so the registry snapshot is
/// byte-identical across the two interpreters, and across repeated
/// runs of the same one.
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
