//! The checked-in meta-profile stays consistent with the interpreter.
//!
//! `crates/usim/meta/uop_meta.json` is the PGO artifact the dispatch
//! order was derived from (regenerate with
//! `pp bench --emit-meta crates/usim/meta/uop_meta.json`). This test
//! re-collects the dynamic micro-op mix at a reduced scale and asserts
//! the artifact still *ranks* like the live interpreter — exact counts
//! vary with scale, but if the hot set drifts (a new workload, a decode
//! change), the artifact must be regenerated before the dispatch order
//! can be trusted.

use std::collections::BTreeMap;

use pp::ir::HwEvent;
use pp::profiler::RunConfig;
use pp::usim::{MachineConfig, MetaProfile};

const CHECKED_IN: &str = include_str!("../crates/usim/meta/uop_meta.json");

/// Parses the flat counter object `Registry::to_json` emits. The format
/// is `{"name":123,...}` with no nesting for counters, which is all the
/// meta artifact contains.
fn parse_counters(json: &str) -> BTreeMap<String, u64> {
    let body = json
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("object");
    let mut out = BTreeMap::new();
    for item in body.split(',') {
        let (k, v) = item.split_once(':').expect("key:value");
        let name = k.trim().trim_matches('"').to_string();
        let value: u64 = v.trim().parse().expect("integer counter");
        out.insert(name, value);
    }
    out
}

fn ranked(prefix: &str, counters: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, n)| (k[prefix.len()..].to_string(), *n))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

fn collect_fresh(scale: f64) -> MetaProfile {
    let config = RunConfig::CombinedHw {
        events: (HwEvent::Insts, HwEvent::DcMiss),
    };
    let mode = config.mode().expect("combined pipeline instruments");
    let mut meta = MetaProfile::default();
    for case in pp::bench::cases_at(scale) {
        let options = pp::instrument::InstrumentOptions::new(mode)
            .with_events(HwEvent::Insts, HwEvent::DcMiss);
        let inst = pp::instrument::instrument_program(&case.program, options).expect("instrument");
        let one = MetaProfile::collect(&inst.program, MachineConfig::default()).expect("collect");
        meta.merge(&one);
    }
    meta
}

#[test]
fn checked_in_artifact_matches_a_fresh_collection() {
    let artifact = parse_counters(CHECKED_IN);
    assert_eq!(
        artifact.get("meta.cases").copied(),
        Some(18),
        "artifact built from the full 18-case bench"
    );
    assert_eq!(artifact.get("meta.scale_milli").copied(), Some(1000));

    let fresh = collect_fresh(0.1);
    let fresh_uops: Vec<(String, u64)> = fresh
        .ranked_uops()
        .into_iter()
        .map(|(n, c)| (n.to_string(), c))
        .collect();
    let old_uops = ranked("uop.", &artifact);

    // The dominant micro-ops are scale-stable: the fresh top 3 must all
    // sit inside the artifact's top 6. Wider drift means the dispatch
    // order no longer matches reality and the artifact needs
    // regeneration.
    let old_top: Vec<&str> = old_uops.iter().take(6).map(|(n, _)| n.as_str()).collect();
    for (name, _) in fresh_uops.iter().take(3) {
        assert!(
            old_top.contains(&name.as_str()),
            "hot uop `{name}` missing from artifact top-6 {old_top:?}; \
             regenerate with `pp bench --emit-meta crates/usim/meta/uop_meta.json`"
        );
    }
}
