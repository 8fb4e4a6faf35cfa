//! The `pp verify` subcommand: end-to-end integrity verification of
//! every profile artifact the pipeline emits.
//!
//! Three argument shapes, dispatched by sniffing rather than flags so a
//! CI loop can point it at anything:
//!
//! * **a profile file** (`PPFLOW2`/`PPCCT02` magic) — envelope
//!   validation plus the semantic invariant walkers: CCT structure for
//!   `.cct` files; flow conservation for `.flow` files when `--against
//!   <target>` names the program they were collected from (without it,
//!   only the envelope is checkable);
//! * **a checkpoint directory** (or a `PPBAT01` manifest file) — the
//!   batch manifest is validated, every referenced profile's stored
//!   CRC is re-checked, and each profile's bytes run through the full
//!   verification above;
//! * **a workload target** (suite name or IR file) — the pipeline runs
//!   under `--config` (default combined) and the live outcome is
//!   verified: flow conservation, CCT structure, metric sanity against
//!   the machine's ground-truth totals, serialized round-trips, and
//!   dense-vs-hashed path-table agreement at the Section 4.2 threshold
//!   boundary. `--clobber-pics <read>` seeds a mid-run counter clobber
//!   (the unreconcilable-wrap fault) so the detection path itself can
//!   be exercised from the command line.
//!
//! Exit codes follow the taxonomy: 0 clean, 2 for any violated
//! invariant ([`PpError::Integrity`]), 3 for unreadable inputs.

use std::path::Path;

use pp::cct::SerializeError;
use pp::instrument::{InstrumentOptions, Mode};
use pp::ir::Program;
use pp::profiler::integrity::{self, IntegrityError, IntegrityReport};
use pp::profiler::merge::{self, MergeManifest, ShardStatus};
use pp::profiler::{
    BatchManifest, FlowProfile, PpError, ProfileRef, Profiler, RunConfig, RunOutcome,
};
use pp::usim::FaultPlan;

use crate::Args;

/// The counter values a `--clobber-pics` injection plants: just below
/// the 32-bit wrap, so the next interval delta explodes past any honest
/// total.
const CLOBBER_VALUES: (u32, u32) = (u32::MAX - 10, u32::MAX - 5);

/// What kind of artifact a file's magic says it is.
enum ArtifactKind {
    Flow,
    Cct,
    Manifest,
    MergeManifest,
}

/// Reads the 8-byte magic of `path` and classifies it. `None` means
/// "not a PP artifact" — the argument falls through to target mode.
fn sniff_magic(path: &Path) -> Option<ArtifactKind> {
    use std::io::Read as _;
    if !path.is_file() {
        return None;
    }
    let mut magic = [0u8; 8];
    let mut file = std::fs::File::open(path).ok()?;
    file.read_exact(&mut magic).ok()?;
    match &magic {
        m if m.starts_with(b"PPFLOW") => Some(ArtifactKind::Flow),
        m if m.starts_with(b"PPCCT") => Some(ArtifactKind::Cct),
        m if m.starts_with(b"PPBAT") => Some(ArtifactKind::Manifest),
        m if m.starts_with(b"PPMRG") => Some(ArtifactKind::MergeManifest),
        _ => None,
    }
}

/// Runs the verification and reports: every violation on stdout, then
/// `verify: OK` or a typed [`PpError::Integrity`] (exit code 2) built
/// from the first violation.
pub fn run_verify(args: &Args) -> Result<(), PpError> {
    let [target] = args.operands()?;
    // Like stats and batch, verify defaults to the combined pipeline so
    // every artifact class gets exercised.
    let config = args.run_config("combined")?;
    let path = Path::new(target);
    let (what, report) = if path.is_dir() {
        // A directory can hold a batch/service checkpoint (PPBAT01
        // manifest) or a merge checkpoint (PPMRG01 manifest); a batch
        // manifest wins when both are present since merge state inside
        // a service dir is derived from the batch artifacts.
        if !path.join("manifest.ppb").is_file() && path.join(merge::MERGE_MANIFEST_FILE).is_file() {
            (
                format!("merge checkpoint directory {}", target),
                verify_merge_dir(path)?,
            )
        } else {
            (
                format!("checkpoint directory {}", target),
                verify_checkpoint_dir(path)?,
            )
        }
    } else {
        match sniff_magic(path) {
            Some(ArtifactKind::Flow) => (
                format!("flow profile {}", target),
                verify_flow_file(path, args)?,
            ),
            Some(ArtifactKind::Cct) => (format!("CCT profile {}", target), verify_cct_file(path)?),
            Some(ArtifactKind::Manifest) => {
                let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
                (
                    format!("batch manifest {}", target),
                    verify_checkpoint_dir(dir.unwrap_or(Path::new(".")))?,
                )
            }
            Some(ArtifactKind::MergeManifest) => {
                let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
                (
                    format!("merge manifest {}", target),
                    verify_merge_dir(dir.unwrap_or(Path::new(".")))?,
                )
            }
            None => (
                format!("target {target}"),
                verify_target(target, config, args)?,
            ),
        }
    };
    println!(
        "verify: {what}: {} checks, {} violation{}",
        report.checks,
        report.violations.len(),
        if report.violations.len() == 1 {
            ""
        } else {
            "s"
        }
    );
    for v in &report.violations {
        println!("  violation: {v}");
    }
    match report.violations.into_iter().next() {
        None => {
            println!("verify: OK");
            Ok(())
        }
        Some(first) => Err(PpError::Integrity(first)),
    }
}

/// Reads a file for verification; unreadable input is I/O (exit 3),
/// not an integrity finding.
fn read_bytes(path: &Path) -> Result<Vec<u8>, PpError> {
    std::fs::read(path).map_err(|e| PpError::io(path.display().to_string(), e))
}

/// Verifies a serialized CCT profile: envelope plus structural walker.
fn verify_cct_file(path: &Path) -> Result<IntegrityReport, PpError> {
    Ok(integrity::verify_cct_bytes(&read_bytes(path)?))
}

/// Verifies a serialized flow profile. With `--against`, the full
/// flow-conservation walk runs against the named program; without it
/// only the envelope is checkable (conservation needs the CFG).
fn verify_flow_file(path: &Path, args: &Args) -> Result<IntegrityReport, PpError> {
    let bytes = read_bytes(path)?;
    if let Some(target) = args.str("--against") {
        let (_, program) = crate::load_target(target, args.scale())?;
        return Ok(integrity::verify_flow_bytes(&program, &bytes));
    }
    pp::obs::warn!(
        "no --against <target>: checking the envelope only \
         (flow conservation needs the program)"
    );
    Ok(flow_envelope_only(&bytes))
}

/// Envelope-only validation of flow bytes (used when no program is
/// available to regenerate paths against).
fn flow_envelope_only(bytes: &[u8]) -> IntegrityReport {
    let mut report = IntegrityReport::default();
    report.checks += 1;
    if let Err(e) = FlowProfile::read_from(&mut &bytes[..]) {
        report.violations.push(IntegrityError::Artifact(e));
    }
    report
}

/// Verifies a batch checkpoint directory: the manifest itself, every
/// referenced profile's stored CRC, and each profile's bytes through
/// the full per-artifact verification. A torn manifest is itself an
/// integrity finding (exit 2); a missing one is I/O (exit 3).
fn verify_checkpoint_dir(dir: &Path) -> Result<IntegrityReport, PpError> {
    let mut report = IntegrityReport::default();
    report.checks += 1;
    let manifest = match BatchManifest::load(dir) {
        Ok(m) => m,
        Err(SerializeError::Io(e)) => {
            return Err(PpError::io(format!("{}/manifest.ppb", dir.display()), e))
        }
        Err(e) => {
            report.violations.push(IntegrityError::Artifact(e));
            return Ok(report);
        }
    };
    for entry in &manifest.jobs {
        for (r, kind) in entry
            .flow
            .iter()
            .map(|r| (r, ArtifactKind::Flow))
            .chain(entry.cct.iter().map(|r| (r, ArtifactKind::Cct)))
        {
            report.checks += 1;
            if !r.validates(dir) {
                report
                    .violations
                    .push(IntegrityError::Artifact(SerializeError::Format(format!(
                        "{}: bytes do not match the CRC stored in the manifest",
                        r.file
                    ))));
                continue;
            }
            let bytes = read_bytes(&dir.join(&r.file))?;
            report.merge(match kind {
                // Each job may target a different program, so flow
                // conservation is not checkable here; the manifest CRC
                // plus envelope still catch corruption at rest.
                ArtifactKind::Flow => flow_envelope_only(&bytes),
                ArtifactKind::Cct => integrity::verify_cct_bytes(&bytes),
                ArtifactKind::Manifest | ArtifactKind::MergeManifest => {
                    unreachable!("refs are flow/cct")
                }
            });
        }
    }
    quarantine_note(dir, "pp batch");
    Ok(report)
}

/// Mentions a non-empty quarantine subdirectory; held files are kept
/// evidence, not fresh violations, so this is a note rather than a
/// finding.
fn quarantine_note(dir: &Path, tool: &str) {
    let quarantine = dir.join("quarantine");
    if quarantine.is_dir() {
        let held = std::fs::read_dir(&quarantine)
            .map(|d| d.count())
            .unwrap_or(0);
        if held > 0 {
            println!(
                "note: {} file(s) held in {} (quarantined by {tool})",
                held,
                quarantine.display()
            );
        }
    }
}

/// Verifies a merge checkpoint directory: the `PPMRG01` manifest's own
/// envelope, the partial (or final) fleet profile's stored CRC plus the
/// full CCT structural walk, and every resolved shard's recorded bytes
/// against what is on disk now. A shard that has vanished since the
/// checkpoint is a note, not a violation — the merge result does not
/// depend on it anymore — but one that *changed* invalidates the
/// checkpoint's provenance and is flagged.
fn verify_merge_dir(dir: &Path) -> Result<IntegrityReport, PpError> {
    let mut report = IntegrityReport::default();
    report.checks += 1;
    let manifest = match MergeManifest::load(dir) {
        Ok(m) => m,
        Err(SerializeError::Io(e)) => {
            return Err(PpError::io(
                format!("{}/{}", dir.display(), merge::MERGE_MANIFEST_FILE),
                e,
            ))
        }
        Err(e) => {
            report.violations.push(IntegrityError::Artifact(e));
            return Ok(report);
        }
    };
    match &manifest.merged {
        Some(r) => {
            report.checks += 1;
            if !r.validates(dir) {
                report
                    .violations
                    .push(IntegrityError::Artifact(SerializeError::Format(format!(
                        "{}: bytes do not match the fingerprint stored in the merge manifest",
                        r.file
                    ))));
            } else {
                let bytes = read_bytes(&dir.join(&r.file))?;
                report.merge(integrity::verify_cct_bytes(&bytes));
            }
        }
        None => println!("note: checkpoint has no fleet profile yet (no shard had merged cleanly)"),
    }
    let mut missing = 0usize;
    for shard in &manifest.shards {
        if shard.status == ShardStatus::Pending {
            continue;
        }
        report.checks += 1;
        match std::fs::read(&shard.path) {
            Err(_) => {
                // The fold already consumed it; absence is expected in
                // a fleet where shards are collected then reaped.
                missing += 1;
            }
            Ok(bytes) => {
                let now = ProfileRef::for_bytes(shard.path.clone(), &bytes);
                if now.len != shard.len || now.crc != shard.crc {
                    report
                        .violations
                        .push(IntegrityError::Artifact(SerializeError::Format(format!(
                            "{}: shard bytes changed since the merge checkpoint \
                             (recorded {} bytes fingerprint {:#010x}, found {} bytes fingerprint {:#010x})",
                            shard.path, shard.len, shard.crc, now.len, now.crc
                        ))));
                }
            }
        }
    }
    if missing > 0 {
        println!("note: {missing} recorded shard(s) no longer on disk (checked manifest only)");
    }
    let quarantined = manifest
        .shards
        .iter()
        .filter(|s| matches!(s.status, ShardStatus::Quarantined(_)))
        .count();
    if quarantined > 0 {
        println!("note: manifest records {quarantined} quarantined shard(s) — profile is partial");
    }
    quarantine_note(dir, "pp merge");
    Ok(report)
}

/// Target mode: run the pipeline live and verify the outcome against
/// the machine's ground truth, plus the serialized round-trips and the
/// Section 4.2 dense/hashed boundary.
fn verify_target(target: &str, config: RunConfig, args: &Args) -> Result<IntegrityReport, PpError> {
    let (name, program) = crate::load_target(target, args.scale())?;
    let mut profiler = args.profiler();
    if let Some(read) = args.get("--clobber-pics") {
        pp::obs::warn!("seeding a counter clobber at read {read} (expect a wrap violation)");
        profiler = profiler.with_fault_plan(FaultPlan::default().clobber_pics_at_read(
            read,
            CLOBBER_VALUES.0,
            CLOBBER_VALUES.1,
        ));
    }
    let run = profiler.run(&program, config)?;
    if !run.is_complete() {
        pp::obs::warn!("{name}: run was cut short; verifying the partial profile");
    }
    let mut report = integrity::verify_outcome(&program, &run);
    if let Some(flow) = &run.flow {
        let mut bytes = Vec::new();
        flow.write_to(&mut bytes)?;
        report.merge(integrity::verify_flow_bytes(&program, &bytes));
    }
    if let Some(cct) = &run.cct {
        let mut bytes = Vec::new();
        pp::cct::write_cct(cct, &mut bytes)?;
        report.merge(integrity::verify_cct_bytes(&bytes));
    }
    if let RunConfig::CombinedHw { events } = config {
        if let Some(dense) = &run.cct {
            report.merge(compare_against_hashed(
                &profiler,
                &program,
                config,
                events,
                args.get("--cct-cap").unwrap_or(0),
                dense,
            )?);
        }
    }
    Ok(report)
}

/// Re-runs the combined pipeline with the path-array threshold forced
/// to zero — every procedure hashes its path sums — and checks the two
/// storage strategies agree on every (context, path, frequency) triple
/// (the Section 4.2 boundary invariant).
fn compare_against_hashed(
    profiler: &Profiler,
    program: &Program,
    config: RunConfig,
    events: (pp::ir::HwEvent, pp::ir::HwEvent),
    cct_cap: u32,
    dense: &pp::cct::CctRuntime,
) -> Result<IntegrityReport, PpError> {
    let options = InstrumentOptions::new(Mode::CombinedHw).with_events(events.0, events.1);
    let hashed_cfg = pp::cct::CctConfig {
        num_metrics: 2,
        path_tables: true,
        path_array_threshold: 0,
        max_records: cct_cap,
        ..pp::cct::CctConfig::default()
    };
    let hashed: RunOutcome = profiler.run_full(program, config, options, Some(hashed_cfg))?;
    let hashed_cct = hashed.cct.as_ref().expect("combined run builds a CCT");
    Ok(integrity::compare_ccts(dense, hashed_cct))
}
