//! Tiny-size runs of every workload, traced and untraced, plus the
//! consistency of the metric lists with `BENCHMARK.json`.

use std::path::PathBuf;

use perfbench::common::{suite, Params};
use perfbench::{
    per_layer, result_line, run_workload, END_TO_END, FLEET_END_TO_END, FLEET_LAYER, WORKLOADS,
};

fn params(seed: u64, trace: bool) -> Params {
    Params {
        seed,
        // One pass of the closed loops; a few fleet jobs.
        seconds: 0.2,
        trace,
        scale: 0.02,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

fn names(metrics: &[perfbench::common::Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

fn smoke(workload: &str, trace: bool) {
    let p = params(5, trace);
    std::fs::create_dir_all(&p.work_dir).unwrap();
    let (out, _) = run_workload(workload, &p).unwrap();
    assert!(out.correct(), "{workload}: {:?}", out.errors);
    let expected: Vec<&str> = match (trace, workload) {
        (true, _) => per_layer().iter().map(|m| m.0).collect(),
        (false, "fleet") => END_TO_END.iter().chain(&FLEET_END_TO_END).map(|m| m.0).collect(),
        (false, _) => END_TO_END.iter().map(|m| m.0).collect(),
    };
    assert_eq!(names(&out.metrics), expected, "{workload}");
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{workload} {}", m.name);
        // Every end-to-end metric, and every per-layer one on the closed
        // loops, is measured, so none reads 0 (a price or an overhead may
        // come out negative) except the count of refused jobs.
        let measured = if trace {
            workload != "fleet" || FLEET_LAYER.iter().any(|l| l.0 == m.name)
        } else {
            true
        };
        if measured && m.name != "service.refused" {
            assert!(m.value != 0.0, "{workload} {} is 0", m.name);
        }
    }
    assert!(result_line(&out).starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn table1_smoke() {
    smoke("table1", false);
}

#[test]
fn table1_traced_smoke() {
    smoke("table1", true);
}

#[test]
fn stats_smoke() {
    smoke("stats", false);
}

#[test]
fn stats_traced_smoke() {
    smoke("stats", true);
}

#[test]
fn fleet_smoke() {
    smoke("fleet", false);
}

#[test]
fn fleet_traced_smoke() {
    smoke("fleet", true);
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload("nonesuch", &params(1, false)).is_err());
}

#[test]
fn seeds_change_programs_but_not_metric_names() {
    let a = suite(1, 0.02, |_| {});
    let b = suite(2, 0.02, |_| {});
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(&b).all(|(x, y)| x.program != y.program));
    assert_eq!(a[0].program, suite(1, 0.02, |_| {})[0].program);
    assert_ne!(
        perfbench::fleet::job_mix(1, 50, 32),
        perfbench::fleet::job_mix(2, 50, 32)
    );

    let run = |seed| {
        let p = params(seed, false);
        std::fs::create_dir_all(&p.work_dir).unwrap();
        run_workload("fleet", &p).unwrap().0
    };
    let (x, y) = (run(1), run(2));
    assert_eq!(names(&x.metrics), names(&y.metrics));
}

#[test]
fn metric_lists_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let json = pp_obs::json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(&END_TO_END));
    assert_eq!(list("per_layer"), owned(&per_layer()));
    let workloads = json.get("workloads").and_then(|v| v.as_arr()).unwrap();
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(|v| v.as_str()).unwrap();
        assert!(WORKLOADS.contains(&name), "{name} is not a workload");
    }
}
