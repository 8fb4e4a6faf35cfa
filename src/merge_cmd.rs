//! `pp merge` — fold a fleet of CCT shard profiles into one profile.
//!
//! Thin CLI shell over [`pp::profiler::merge::run_merge`]: parse the
//! fault-injection spec, run the fold, render the per-shard disposition
//! report, and write the canonical fleet profile atomically. Exit-code
//! policy mirrors the rest of the tool: quarantined shards are a
//! *degraded success* (exit 0 with a PARTIAL warning) unless `--strict`
//! escalates the first one to exit 3.

use pp::profiler::merge::{MergeOptions, MergeOutcome, ShardStatus};
use pp::profiler::supervisor::manifest::write_atomic;
use pp::profiler::{PpError, ProfileRef};
use std::path::{Path, PathBuf};

use crate::Args;

/// The only `--inject` token `pp merge` understands is `halt@N`; the
/// richer batch vocabulary (panic/transient/corrupt) targets job
/// execution, which a merge does not do.
fn parse_inject(spec: &str) -> Result<u32, PpError> {
    let n = spec
        .strip_prefix("halt@")
        .and_then(|n| n.parse::<u32>().ok())
        .filter(|n| *n > 0)
        .ok_or_else(|| {
            PpError::Usage(format!(
                "bad --inject `{spec}` for merge (expect halt@N, N >= 1)"
            ))
        })?;
    Ok(n)
}

/// Runs `pp merge` end to end.
///
/// # Errors
///
/// Usage errors for a missing `--out` or a bad `--inject`; otherwise
/// whatever [`pp::profiler::merge::run_merge`] or the final profile
/// write surfaces.
pub fn run_merge_cmd(args: &Args) -> Result<(), PpError> {
    let out = args
        .str("--out")
        .ok_or_else(|| PpError::Usage("pp merge needs --out FILE for the fleet profile".into()))?;
    let (checkpoint_dir, resume) = args.checkpoint()?;
    let halt = args.str("--inject").map(parse_inject).transpose()?;
    if halt.is_some() && checkpoint_dir.is_none() {
        return Err(PpError::Usage(
            "--inject halt@N needs --checkpoint-dir (nothing would survive the halt)".into(),
        ));
    }
    let opts = MergeOptions {
        strict: args.on("--strict"),
        checkpoint_dir: checkpoint_dir.map(PathBuf::from),
        checkpoint_every: args.get("--checkpoint-every").unwrap_or(8),
        resume,
        halt_after_checkpoints: halt.unwrap_or(0),
    };
    let mut registry = pp::obs::Registry::new();
    let report = match pp::profiler::merge::run_merge(&args.operands, &opts, &mut registry)? {
        MergeOutcome::Halted { report } => {
            // The kill -9 stand-in: no destructors, no flushing — the
            // checkpoint on disk is all a resumed merge gets, exactly
            // like a real power cut.
            eprintln!(
                "merge halted by fault injection after {} checkpoints; aborting",
                report.checkpoints
            );
            std::process::abort();
        }
        MergeOutcome::Complete { bytes, report } => {
            write_atomic(Path::new(out), &bytes).map_err(|e| PpError::io(out.to_string(), e))?;
            let r = ProfileRef::for_bytes(out.to_string(), &bytes);
            print_report(&report, &r);
            report
        }
    };
    if args.on("--metrics") {
        println!("{}", registry.snapshot());
    }
    let quarantined = report.quarantined_count();
    if quarantined > 0 {
        pp::obs::warn!(
            "fleet profile is PARTIAL: {quarantined} shard(s) quarantined \
             (rerun with --strict to fail fast instead)"
        );
    }
    Ok(())
}

fn print_report(report: &pp::profiler::MergeReport, out: &ProfileRef) {
    println!("== pp merge: {} shards ==", report.shards.len());
    for shard in &report.shards {
        match &shard.status {
            ShardStatus::Merged => println!("  {:<40} merged", shard.path),
            ShardStatus::Quarantined(e) => {
                println!("  {:<40} QUARANTINED [{}]: {e}", shard.path, e.kind());
            }
            // Unreachable on a Complete outcome; printed for honesty if
            // the report shape ever changes.
            ShardStatus::Pending => println!("  {:<40} pending", shard.path),
        }
    }
    println!(
        "summary: {} folded, {} quarantined, {} duplicate path(s) dropped, \
         {} adopted from checkpoint, {} checkpoint write(s)",
        report.merged_count(),
        report.quarantined_count(),
        report.dedup_dropped,
        report.resumed,
        report.checkpoints,
    );
    println!(
        "wrote {} ({} bytes, fingerprint {:#010x})",
        out.file, out.len, out.crc
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_accepts_only_halt() {
        assert_eq!(parse_inject("halt@2").unwrap(), 2);
        for bad in ["halt@0", "halt@x", "panic@1", "halt", ""] {
            assert!(parse_inject(bad).is_err(), "`{bad}` should not parse");
        }
    }

    fn merge(argv: &[&str]) -> Result<(), PpError> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        run_merge_cmd(&Args::parse("merge", &argv)?)
    }

    #[test]
    fn missing_out_is_a_usage_error() {
        assert!(matches!(merge(&["whatever.cct"]), Err(PpError::Usage(_))));
    }

    #[test]
    fn halt_without_checkpoint_dir_is_refused() {
        let argv = ["whatever.cct", "--out", "out.cct", "--inject", "halt@1"];
        assert!(matches!(merge(&argv), Err(PpError::Usage(_))));
    }
}
