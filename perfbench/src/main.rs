//! `perfbench --workload <table1|stats|fleet> --seed <n> --seconds <s>
//! --trace <0|1>`: runs one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer ones). Detail lines before it give each timing's
//! quartiles and sample count, the host, and span self times. Exits 1
//! when an output check failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::common::{host_fingerprint, pin_to_current_cpu, Params};
use perfbench::{result_line, run_workload};

const USAGE: &str =
    "usage: perfbench --workload <table1|stats|fleet> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let mut workload = None;
    let mut p = Params {
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        work_dir: Params::default_work_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => p.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                p.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("seconds between 0 and 3600"))?;
            }
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, p))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, p) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&p.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", p.work_dir.display());
        return ExitCode::from(2);
    }
    // Before pinning: `nproc` reports the CPUs available to the process.
    let host = host_fingerprint();
    let pinned = pin_to_current_cpu();
    let (out, tr) = match run_workload(&workload, &p) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "perfbench {workload} seed={} seconds={} trace={} host: {host} {}",
        p.seed,
        p.seconds,
        u8::from(p.trace),
        pinned.map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"))
    );
    for note in &out.notes {
        println!("  {note}");
    }
    if p.trace {
        let path = p
            .work_dir
            .join(format!("spans-{workload}-seed{}.jsonl", p.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("  {} spans written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!(
            "  {:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "self ms"
        );
        for (name, t) in tr.totals() {
            println!(
                "  {name:<28} {:>8} {:>12.3} {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for m in &out.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let line = result_line(&out);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
