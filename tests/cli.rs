//! End-to-end tests of the `pp` command-line tool.

use std::process::Command;

fn pp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pp"))
        .args(args)
        .output()
        .expect("binary spawns")
}

#[test]
fn list_names_the_suite() {
    let out = pp(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in pp::workloads::SUITE_NAMES {
        assert!(text.contains(name), "missing {name}:\n{text}");
    }
}

#[test]
fn run_reports_overhead() {
    let out = pp(&[
        "run",
        "129.compress",
        "--scale",
        "0.1",
        "--config",
        "flow-hw",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Flow and HW"), "{text}");
    assert!(text.contains("x base"), "{text}");
    assert!(text.contains("paths:"), "{text}");
}

#[test]
fn hot_lists_paths_and_procedures() {
    let out = pp(&["hot", "101.tomcatv", "--scale", "0.1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hot paths"), "{text}");
    assert!(text.contains("hot procedures"), "{text}");
    assert!(text.contains("kernel_"), "{text}");
}

#[test]
fn cct_writes_a_loadable_profile() {
    let dir = std::env::temp_dir().join(format!("pp-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("profile.cct");
    let out = pp(&[
        "cct",
        "130.li",
        "--scale",
        "0.1",
        "--out",
        file.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&file).expect("profile written");
    let cct = pp::cct::read_cct(&mut bytes.as_slice()).expect("profile loads");
    assert!(cct.num_records() > 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_check_guards_the_trajectory() {
    let dir = std::env::temp_dir().join(format!("pp-bench-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // A baseline no real run can regress against: the check passes (an
    // *improvement* is never an error, whatever the tolerance) and the
    // comparison is printed.
    let generous = dir.join("generous.json");
    std::fs::write(
        &generous,
        r#"{"date": "2026-01-01", "scale": 0.05, "repeat": 1,
            "pipeline": "combined (simulate + CCT + path counters)",
            "wall_s": 1000000.0, "speedup": 0.000001, "cases": []}"#,
    )
    .expect("write");
    let out = pp(&[
        "bench",
        "--smoke",
        "--check",
        generous.to_str().expect("utf8"),
        "--tolerance",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("check passed"), "{text}");

    // A baseline no real run can meet: wall time regresses beyond any
    // tolerance, so the command exits 1 (usage-error contract).
    let impossible = dir.join("impossible.json");
    std::fs::write(
        &impossible,
        r#"{"date": "2026-01-01", "scale": 0.05, "repeat": 1,
            "pipeline": "combined (simulate + CCT + path counters)",
            "wall_s": 0.000001, "speedup": 1000000.0, "cases": []}"#,
    )
    .expect("write");
    let out = pp(&[
        "bench",
        "--smoke",
        "--check",
        impossible.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("regressed") || err.contains("check"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decode_prints_a_block_listing() {
    let out = pp(&["decode", "129.compress", "kernel_0", "0", "--scale", "0.1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("potential paths"), "{text}");
    assert!(text.contains("b0:"), "{text}");
}

#[test]
fn accepts_textual_ir_files() {
    let dir = std::env::temp_dir().join(format!("pp-cli-ir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("tiny.ir");
    std::fs::write(
        &file,
        "program (entry @0):\n\
         proc main (regs=2, fregs=0, sites=0):\n\
           b0:\n\
             mov r0, 0\n\
             jmp b1\n\
           b1:\n\
             cmplt r1, r0, 100\n\
             br r1 ? b2 : b3\n\
           b2:\n\
             add r0, r0, 1\n\
             jmp b1\n\
           b3:\n\
             ret\n",
    )
    .expect("write ir");
    let out = pp(&["run", file.to_str().expect("utf8"), "--config", "flow"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("paths:"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_reports_overhead_accounting() {
    let dir = std::env::temp_dir().join(format!("pp-cli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let stats_path = dir.join("stats.json");
    let trace_path = dir.join("trace.json");
    let out = pp(&[
        "stats",
        "129.compress",
        "--scale",
        "0.05",
        "--out",
        stats_path.to_str().expect("utf8"),
        "--trace-out",
        trace_path.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-phase wall time"), "{text}");
    assert!(text.contains("simulate"), "{text}");
    assert!(text.contains("dilation"), "{text}");
    assert!(text.contains("internals metrics"), "{text}");
    assert!(text.contains("counter sim.uops"), "{text}");

    // The stats JSON round-trips through the in-tree parser, and every
    // dilation field is a finite number.
    let json_text = std::fs::read_to_string(&stats_path).expect("stats written");
    let v = pp::obs::json::parse(&json_text).expect("stats JSON parses");
    assert_eq!(
        pp::obs::json::parse(&v.render()).expect("rendered form parses"),
        v,
        "round trip is lossless"
    );
    let wall_dilation = v
        .get("wall")
        .and_then(|w| w.get("dilation"))
        .and_then(pp::obs::Json::as_f64)
        .expect("wall dilation");
    assert!(wall_dilation.is_finite() && wall_dilation > 0.0);
    for (name, d) in v
        .get("dilation")
        .and_then(pp::obs::Json::as_obj)
        .expect("dilation object")
    {
        let d = d.as_f64().unwrap_or(f64::NAN);
        assert!(d.is_finite() && d >= 1.0, "dilation {name} = {d}");
    }
    assert!(
        v.get("metrics")
            .and_then(|m| m.get("sim.uops"))
            .and_then(pp::obs::Json::as_f64)
            .expect("sim.uops metric")
            > 0.0
    );

    // The Chrome trace is valid JSON full of complete events.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let t = pp::obs::json::parse(&trace_text).expect("trace JSON parses");
    let events = t
        .get("traceEvents")
        .and_then(pp::obs::Json::as_arr)
        .expect("traceEvents");
    assert!(!events.is_empty());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(pp::obs::Json::as_str), Some("X"));
        assert!(ev.get("dur").and_then(pp::obs::Json::as_f64).is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_still_reads_saved_profiles() {
    let dir = std::env::temp_dir().join(format!("pp-cli-statscct-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("profile.cct");
    let out = pp(&[
        "cct",
        "130.li",
        "--scale",
        "0.05",
        "--out",
        file.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());
    let out = pp(&["stats", file.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("records:"), "{text}");
    assert!(
        !text.contains("dilation"),
        "saved-profile mode runs nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quiet_silences_diagnostics_but_not_exit_codes() {
    // --max-uops forces an abort: leveled warning on stderr, exit code 2.
    let noisy = pp(&[
        "run",
        "129.compress",
        "--scale",
        "0.05",
        "--max-uops",
        "2000",
    ]);
    assert_eq!(noisy.status.code(), Some(2));
    let err = String::from_utf8_lossy(&noisy.stderr);
    assert!(
        err.contains("pp [warn]") && err.contains("aborted"),
        "{err}"
    );

    let quiet = pp(&[
        "run",
        "129.compress",
        "--scale",
        "0.05",
        "--max-uops",
        "2000",
        "--quiet",
    ]);
    assert_eq!(quiet.status.code(), Some(2), "--quiet keeps the exit code");
    let err = String::from_utf8_lossy(&quiet.stderr);
    assert!(
        !err.contains("pp [warn]"),
        "--quiet must silence the warning: {err}"
    );
    // The one-line error explaining the nonzero exit always prints.
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn bad_target_fails_cleanly() {
    let out = pp(&["run", "999.nonesuch"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("neither a suite benchmark"), "{err}");
}

#[test]
fn bad_event_fails_with_event_list() {
    let out = pp(&["run", "129.compress", "--events", "bogus,dc_miss"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown event"), "{err}");
    assert!(err.contains("cycles"), "{err}");
}

#[test]
fn report_combines_everything() {
    let out = pp(&["report", "130.li", "--scale", "0.1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("profiling overheads"), "{text}");
    assert!(text.contains("hot paths"), "{text}");
    assert!(text.contains("hot procedures"), "{text}");
    assert!(text.contains("calling context tree"), "{text}");
    assert!(text.contains("section 6.4.3"), "{text}");
}

#[test]
fn batch_runs_an_injected_campaign() {
    let dir = std::env::temp_dir().join(format!("pp-cli-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 8 jobs, one runaway guest, one permanently panicking worker, one
    // transient fault the retry budget absorbs.
    let names = &pp::workloads::SUITE_NAMES[..8];
    let mut args = vec!["batch"];
    args.extend(names.iter().copied());
    args.extend([
        "--scale",
        "0.02",
        "--jobs",
        "3",
        "--seed",
        "7",
        "--fuel",
        "50000000",
        "--retries",
        "2",
        "--inject",
        "hang@1,panic@2,transient@4",
        "--checkpoint-dir",
    ]);
    let dir_str = dir.to_str().expect("utf8").to_string();
    args.push(&dir_str);
    let out = pp(&args);
    assert!(
        out.status.success(),
        "campaign with contained failures exits 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("batch complete: all 8 jobs finished"),
        "{text}"
    );
    assert!(text.contains("6 done, 2 failed, 0 pending"), "{text}");
    assert!(text.contains("fuel budget"), "hang job detail:\n{text}");
    assert!(text.contains("panicked"), "panic job detail:\n{text}");
    // The transient job recovered on a retry.
    let retried = text
        .lines()
        .find(|l| l.starts_with(names[4]))
        .expect("transient job row");
    assert!(
        retried.contains("done") && retried.contains('2'),
        "retry-then-succeed row: {retried}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_halt_resume_round_trip_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("pp-cli-batchrt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let full = base.join("full");
    let halted = base.join("halted");
    let names: Vec<&str> = pp::workloads::SUITE_NAMES[..8].to_vec();
    let run = |dir: &std::path::Path, extra: &[&str]| {
        let mut args = vec!["batch"];
        args.extend(names.iter().copied());
        args.extend(["--scale", "0.02", "--jobs", "2", "--seed", "11", "--quiet"]);
        args.extend(extra.iter().copied());
        let d = dir.to_str().expect("utf8").to_string();
        let leaked: &'static str = Box::leak(d.into_boxed_str());
        args.push(leaked);
        pp(&args)
    };
    // Uninterrupted reference.
    let out = run(&full, &["--checkpoint-dir"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Killed after 3 checkpoints (exit 2), then resumed.
    let out = run(&halted, &["--inject", "halt@3", "--checkpoint-dir"]);
    assert_eq!(out.status.code(), Some(2), "halt leaves work pending");
    let out = run(&halted, &["--resume"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("batch complete: all 8 jobs finished"),
        "{text}"
    );
    assert_eq!(
        std::fs::read(full.join("manifest.ppb")).expect("reference manifest"),
        std::fs::read(halted.join("manifest.ppb")).expect("resumed manifest"),
        "resume converges on the uninterrupted manifest"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn batch_resume_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("pp-cli-batchbad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Resume from a directory with no manifest → I/O error, exit 3.
    std::fs::create_dir_all(&dir).expect("mkdir");
    let d = dir.to_str().expect("utf8");
    let out = pp(&["batch", "--scale", "0.02", "--quiet", "--resume", d]);
    assert_eq!(out.status.code(), Some(3));
    // Bad inject spec → usage error, exit 1.
    let out = pp(&["batch", "--inject", "explode@1"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown kind"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `pp stats` on corrupt, empty, or wrong-magic files: a typed
/// integrity error on stderr and exit code 2 — never a panic, and
/// never a misleading "unknown target" usage error.
#[test]
fn stats_rejects_corrupt_and_opaque_files() {
    let dir = std::env::temp_dir().join(format!("pp-cli-statsbad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    let empty = dir.join("empty.cct");
    std::fs::write(&empty, b"").expect("write");
    let wrong = dir.join("wrong.bin");
    std::fs::write(&wrong, b"PPXXX99\n garbage").expect("write");
    let flipped = dir.join("flipped.cct");
    let out = pp(&[
        "cct",
        "129.compress",
        "--scale",
        "0.02",
        "--out",
        flipped.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());
    let mut bytes = std::fs::read(&flipped).expect("profile written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&flipped, &bytes).expect("rewrite");

    for file in [&empty, &wrong, &flipped] {
        let out = pp(&["stats", file.to_str().expect("utf8")]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{}: wrong exit code, stderr: {}",
            file.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{}: {err}", file.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `pp verify` in all three dispatch modes on clean inputs: exit 0 and
/// a `verify: OK` line.
#[test]
fn verify_passes_clean_artifacts() {
    let dir = std::env::temp_dir().join(format!("pp-cli-verifyok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let profile = dir.join("clean.cct");
    let out = pp(&[
        "cct",
        "129.compress",
        "--scale",
        "0.02",
        "--out",
        profile.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());

    // Target mode (live run, all invariants) and file mode.
    for target in ["129.compress", profile.to_str().expect("utf8")] {
        let out = pp(&["verify", target, "--scale", "0.02"]);
        assert!(
            out.status.success(),
            "{target}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("verify: OK"), "{target}: {text}");
        assert!(text.contains("0 violations"), "{target}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance scenario for the integrity layers, end to end: a
/// hand-corrupted profile, a seeded counter clobber, and a tampered
/// flow profile each produce a distinct typed violation and exit 2.
#[test]
fn verify_detects_seeded_corruption() {
    let dir = std::env::temp_dir().join(format!("pp-cli-verifybad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Layer 1a, artifact integrity: a flipped byte in a CCT profile.
    let profile = dir.join("flipped.cct");
    let out = pp(&[
        "cct",
        "130.li",
        "--scale",
        "0.02",
        "--out",
        profile.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());
    let mut bytes = std::fs::read(&profile).expect("profile written");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&profile, &bytes).expect("rewrite");
    let out = pp(&["verify", profile.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violation:"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    // Layer 1b, flow conservation: inflate one backedge path count in
    // an otherwise valid serialized flow profile.
    let spec = pp::workloads::spec_for("099.go")
        .expect("known")
        .scaled(0.05);
    let program = pp::workloads::build(&spec);
    let run = pp::profiler::Profiler::default()
        .run(&program, pp::profiler::RunConfig::FlowFreq)
        .expect("run")
        .expect_complete();
    let mut flow = run.flow.clone().expect("flow profile");
    let (proc, sum) = flow
        .iter_paths()
        .find_map(|(proc, sum, _)| {
            let paths = pp::pathprof::ProcPaths::analyze(program.procedure(proc)).ok()?;
            match paths.decode_blocks(sum).1 {
                pp::pathprof::PathKind::BackedgeToExit { .. } => Some((proc, sum)),
                pp::pathprof::PathKind::BackedgeToBackedge { from, to } if from != to => {
                    Some((proc, sum))
                }
                _ => None,
            }
        })
        .expect("a loopy workload records backedge paths");
    flow.record(proc, sum, None);
    let tampered = dir.join("tampered.flow");
    let mut bytes = Vec::new();
    flow.write_to(&mut bytes).expect("serialize");
    std::fs::write(&tampered, &bytes).expect("write");
    let out = pp(&[
        "verify",
        tampered.to_str().expect("utf8"),
        "--against",
        "099.go",
        "--scale",
        "0.05",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("flow conservation"), "{err}");

    // Layer 2, counter wrap: a seeded clobber near u32::MAX must be
    // caught as an unreconciled wrap by the live-run checks.
    let out = pp(&[
        "verify",
        "129.compress",
        "--scale",
        "0.02",
        "--clobber-pics",
        "3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unreconciled counter wrap"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupted profile inside a checkpoint directory fails the
/// manifest CRC re-check: `pp verify <dir>` exits 2 naming the file.
#[test]
fn verify_flags_corrupted_checkpoint_profile() {
    let dir = std::env::temp_dir().join(format!("pp-cli-verifydir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8");
    let out = pp(&[
        "batch",
        "129.compress",
        "101.tomcatv",
        "--scale",
        "0.02",
        "--checkpoint-dir",
        d,
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pp(&["verify", d]);
    assert!(out.status.success(), "clean checkpoint dir must verify");

    let victim = dir.join("job-000.cct");
    let mut bytes = std::fs::read(&victim).expect("checkpointed profile");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&victim, &bytes).expect("rewrite");
    let out = pp(&["verify", d]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("job-000.cct"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `pp batch --inject corrupt@I` end to end: the poisoned job is
/// verified, quarantined (artifact plus report under `quarantine/`),
/// retried once, and the rest of the campaign completes.
#[test]
fn batch_quarantines_injected_corruption() {
    let dir = std::env::temp_dir().join(format!("pp-cli-batchq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8");
    let out = pp(&[
        "batch",
        "129.compress",
        "101.tomcatv",
        "102.swim",
        "--scale",
        "0.02",
        "--checkpoint-dir",
        d,
        "--inject",
        "corrupt@1",
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 done, 1 failed"), "{text}");
    assert!(text.contains("2 quarantined"), "{text}");
    assert!(text.contains("integrity:"), "{text}");
    let report = std::fs::read_to_string(dir.join("quarantine/job-001-attempt-1.report.txt"))
        .expect("quarantine report written");
    assert!(report.contains("unreconciled counter wrap"), "{report}");
    assert!(report.contains("exit code 2"), "{report}");
    assert!(
        dir.join("quarantine/job-001-attempt-2.report.txt").exists(),
        "the integrity retry must quarantine its own attempt"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `pp submit` against a missing daemon: a typed transport failure
/// (service unavailable, exit 4), not a hang or a panic — on both the
/// Unix and the TCP transport, with or without retries.
#[cfg(unix)]
#[test]
fn submit_without_a_server_exits_4() {
    let out = pp(&["submit", "129.compress", "--socket", "/nonexistent/pp.sock"]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("transport failure"), "{err}");
    // --retries 0: exactly one connect attempt, immediate typed error.
    let out = pp(&[
        "submit",
        "129.compress",
        "--socket",
        "tcp:127.0.0.1:1", // reserved port: connection refused
        "--retries",
        "0",
        "--timeout",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("transport failure"), "{err}");
    // `pp status` without a daemon falls back to the on-disk checkpoint
    // view; with no state directory either, that is a corrupt-profile
    // error (exit 3), not a transport one.
    let out = pp(&["status", "--socket", "/nonexistent/pp.sock"]);
    assert_eq!(out.status.code(), Some(3));
    // But a status request that *needs* the daemon (metrics) is exit 4.
    let out = pp(&["status", "--metrics", "--socket", "/nonexistent/pp.sock"]);
    assert_eq!(out.status.code(), Some(4));
}

/// Malformed client verbs are usage errors before any socket I/O.
#[cfg(unix)]
#[test]
fn service_verbs_reject_bad_arguments() {
    // A job id must be numeric.
    let out = pp(&["status", "not-a-number"]);
    assert_eq!(out.status.code(), Some(1));
    // serve: a zero queue capacity is rejected up front.
    let out = pp(&["serve", "--queue-cap", "0"]);
    assert_eq!(out.status.code(), Some(1));
    // And the usage text advertises the service verbs.
    let out = pp(&[]);
    let err = String::from_utf8_lossy(&out.stderr);
    for verb in ["serve:", "submit:", "status:"] {
        assert!(err.contains(verb), "usage must mention `{verb}`: {err}");
    }
    assert!(err.contains("4 service unavailable"), "{err}");
}

/// The full daemon lifecycle over a real Unix socket: serve, submit
/// (including a refused bad spec), status, SIGTERM drain, and a
/// `pp verify`-clean state directory left behind.
#[cfg(unix)]
#[test]
fn serve_round_trip_drains_on_sigterm() {
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("pp-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let socket = dir.join("pp.sock");
    let state = dir.join("state");
    let daemon = Command::new(env!("CARGO_BIN_EXE_pp"))
        .args([
            "serve",
            "--socket",
            socket.to_str().expect("utf8"),
            "--checkpoint-dir",
            state.to_str().expect("utf8"),
            "--jobs",
            "2",
            "--inject-every",
            "panic=2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // Wait for the socket to appear.
    let t = Instant::now();
    while !socket.exists() {
        assert!(t.elapsed() < Duration::from_secs(10), "daemon never bound");
        std::thread::sleep(Duration::from_millis(20));
    }
    let sock = socket.to_str().expect("utf8");

    let out = pp(&[
        "submit",
        "129.compress",
        "--socket",
        sock,
        "--scale",
        "0.02",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("submitted job 0"));
    // A bad spec is refused with a usage error, and is not admitted.
    let out = pp(&["submit", "999.nonesuch", "--socket", sock]);
    assert_eq!(out.status.code(), Some(1));
    // Job 1 hits the injected panic on its first attempt and recovers.
    let out = pp(&["submit", "129.compress", "--socket", sock, "--wait"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("done"), "{text}");

    let out = pp(&["status", "--socket", sock, "--wait-idle"]);
    assert!(out.status.success());
    let out = pp(&["status", "--socket", sock]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phase: accepting"), "{text}");
    assert!(text.contains("2 done"), "{text}");
    assert!(text.contains("\"panics\":1"), "{text}");

    // SIGTERM: graceful drain, metrics dump, clean exit.
    let pid = daemon.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs")
        .success());
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "drain must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve stopped: 2 done, 0 failed"), "{text}");
    assert!(text.contains("counter service.admitted 2"), "{text}");
    assert!(!socket.exists(), "the socket file is removed on shutdown");

    // The state directory it leaves behind is verifiably intact.
    let out = pp(&["verify", state.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verbs_reject_flags_they_never_read() {
    for args in [
        &[
            "run",
            "129.compress",
            "--listen",
            "1.2.3.4:5",
            "--max-conns",
            "3",
        ][..],
        &["batch", "--queue-cap", "3"],
        &["list", "--jobs", "4"],
        &["status", "--inject-every", "panic=2"],
        &["serve", "--scale", "1"],
    ] {
        let out = pp(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("does not take"), "{args:?}: {err}");
    }
    // The global flags stay valid on every verb.
    let out = pp(&["list", "--quiet", "--trace"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every verb that reads `--scale` holds it to one rule: finite and
/// greater than 0. `--threshold` must be a fraction in [0, 1].
/// Out-of-range values are usage errors, never silently run.
#[test]
fn out_of_range_values_are_usage_errors() {
    for args in [
        &["run", "129.compress", "--scale", "0"][..],
        &["run", "129.compress", "--scale", "-1"],
        &["run", "129.compress", "--scale", "nan"],
        &["run", "129.compress", "--scale", "inf"],
        &["batch", "129.compress", "--scale", "0"],
        &["submit", "129.compress", "--scale", "inf"],
        &[
            "hot",
            "129.compress",
            "--scale",
            "0.05",
            "--threshold",
            "nan",
        ],
        &[
            "hot",
            "129.compress",
            "--scale",
            "0.05",
            "--threshold",
            "-3",
        ],
    ] {
        let out = pp(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bad --"), "{args:?}: {err}");
    }
}

/// `--resume DIR` names the checkpoint directory itself, so a
/// `--checkpoint-dir` naming another one is refused, not dropped.
#[test]
fn resume_with_another_checkpoint_dir_is_refused() {
    let dir = std::env::temp_dir().join(format!("pp-cli-resumedir-{}", std::process::id()));
    let (a, b) = (dir.join("a"), dir.join("b"));
    let (a, b) = (a.to_str().expect("utf8"), b.to_str().expect("utf8"));
    let out_file = dir.join("out.cct");
    let out_file = out_file.to_str().expect("utf8");
    for args in [
        &["batch", "--resume", a, "--checkpoint-dir", b][..],
        &[
            "merge",
            a,
            "--out",
            out_file,
            "--resume",
            a,
            "--checkpoint-dir",
            b,
        ],
    ] {
        let out = pp(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("different directories"), "{args:?}: {err}");
    }
    // Both naming the same directory is no conflict: the resume goes
    // ahead and finds no manifest there (I/O error, exit 3).
    let out = pp(&["batch", "--quiet", "--resume", a, "--checkpoint-dir", a]);
    assert_eq!(out.status.code(), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}
