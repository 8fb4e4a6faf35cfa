//! `pp` — the command-line profiler.
//!
//! ```text
//! pp list                                   list the benchmark suite
//! pp run <target> [options]                 profile and summarize
//! pp hot <target> [options]                 hot paths and procedures
//! pp report <target> [options]              full report: overheads, hot
//!                                           paths, procedures, CCT stats
//! pp cct <target> [--out FILE] [options]    build a CCT, print stats
//! pp stats <file.cct>                       stats of a saved CCT profile
//! pp stats <target> [options]               overhead accounting: per-phase
//!                                           wall times, internals metrics,
//!                                           instrumented-vs-base dilation
//!                                           (the paper's Table 5 analogue)
//! pp annotate <target> <proc> [options]     annotated block listing
//! pp decode <target> <proc> <sum>           decode a path sum to blocks
//! pp bench [--smoke] [--out FILE] [options] time the combined pipeline
//!                                           over the suite; write
//!                                           BENCH_<date>.json
//! pp batch [targets...] [options]           supervised campaign over the
//!                                           suite (or the given targets):
//!                                           worker threads, guest limits,
//!                                           retries, crash-safe
//!                                           checkpoint/resume
//! pp merge <shards...> --out FILE [options] fold N CCT shard profiles
//!                                           (files and/or checkpoint
//!                                           dirs) into one deterministic
//!                                           fleet profile; corrupt
//!                                           shards quarantine (--strict
//!                                           fails fast, exit 3);
//!                                           --checkpoint-dir/--resume
//!                                           make the fold crash-safe
//! pp verify <file|dir|target> [options]     integrity verification: flow
//!                                           conservation, CCT structure,
//!                                           counter-wrap sanity, envelope
//!                                           CRCs; exit 2 on any violation
//! pp serve [options]                        profile-as-a-service daemon on
//!                                           a Unix socket (and, with
//!                                           --listen, TCP): bounded
//!                                           admission, per-client quotas,
//!                                           connection caps and idle/frame
//!                                           deadlines, drain-on-signal,
//!                                           crash-safe journal + checkpoint
//!                                           recovery
//! pp submit <target> [options]              send one job to a daemon
//! pp status [job-id] [options]              query a daemon's jobs/metrics
//!                                           (live when the daemon answers;
//!                                           stale-labeled checkpoint state
//!                                           otherwise; --metrics/--prom for
//!                                           the full registry)
//! pp fetch [artifact] [options]             pull a stored artifact (or,
//!                                           by default, the merged
//!                                           fleet profile) off a daemon
//!                                           over the socket, CRC
//!                                           verified; --out renames it
//! pp watch [options]                        tail the daemon's event bus:
//!                                           per-job lifecycle, phase
//!                                           changes, metrics snapshots;
//!                                           filter with --job/--client/
//!                                           --events/--since, --json for
//!                                           raw NDJSON frames
//! pp chaos [options]                        deterministic fault-injecting
//!                                           TCP proxy for transport soak
//!                                           tests: --listen, --upstream,
//!                                           --plan ok,delay:MS,throttle:N,
//!                                           tear:K,reset:M,blackhole,
//!                                           assigned by accept order
//!                                           (rotated by --seed)
//!
//! <target> is a suite benchmark name (see `pp list`) or a path to a
//! textual IR file (see pp_ir::parse).
//! ```
//!
//! Every flag is declared once, as a row of [`FLAGS`]: its name, value
//! rule, the verbs that read it, and its help line. Run `pp` with no
//! arguments for the usage text generated from those rows (every verb
//! with its flags, then every flag with its help); a stray flag or a
//! wrong operand count prints the verb's own part of it. A flag a verb
//! does not read is a usage error, never silently ignored.
//!
//! Exit codes: 0 success; 1 usage or instrumentation error; 2 run
//! aborted (partial profile) or integrity violation; 3 I/O error or
//! corrupt profile; 4 service unavailable (overloaded, quota exhausted,
//! draining, or an unreachable/unresponsive daemon on either transport
//! — back off and resubmit).

mod batch_cmd;
mod bench_cmd;
mod chaos_cmd;
mod merge_cmd;
#[cfg(unix)]
mod serve_cmd;
mod signals;
mod verify_cmd;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};

use pp::cct::{CctStats, SerializeError};
use pp::ir::{HwEvent, ProcId, Program};
use pp::profiler::{analysis, annotate, IntegrityError, PpError, Profiler, RunConfig, RunOutcome};
use pp::usim::{ExecError, GuestLimits, MachineConfig};

/// Default wall-clock deadline for the long-running accounting commands
/// (`pp stats`, `pp bench`): generous enough that no legitimate run on
/// any plausible host gets near it, but a wedged guest no longer hangs
/// CI forever. `--deadline 0` disables it.
const ACCOUNTING_DEADLINE_S: f64 = 120.0;

/// The counter pair on `%pic0`/`%pic1` when `--events` is absent.
const DEFAULT_EVENTS: (HwEvent, HwEvent) = (HwEvent::Insts, HwEvent::DcMiss);

/// What a flag's value must be. The parse loop checks every value
/// against its flag's rule, and the service's job-spec resolver checks
/// `scale=` with the same rule, so a value one front end refuses the
/// other refuses too.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rule {
    /// No value: the flag is on when given.
    Switch,
    /// Any string; the verb interprets it.
    Str,
    U64,
    U32,
    /// An integer in `1..=u32::MAX`: a size that must not be zero.
    Count,
    /// A finite number ≥ 0 (seconds, where 0 disables; a tolerance).
    NonNeg,
    /// A finite number > 0: a workload scale.
    Scale,
    /// A number in [0, 1].
    Fraction,
}

impl Rule {
    fn expects(self) -> &'static str {
        match self {
            Rule::Switch => "no value",
            Rule::Str => "a string",
            Rule::U64 => "an integer in 0..=2^64-1",
            Rule::U32 => "an integer in 0..=2^32-1",
            Rule::Count => "an integer in 1..=2^32-1",
            Rule::NonNeg => "a finite number >= 0",
            Rule::Scale => "a finite number > 0",
            Rule::Fraction => "a number in [0, 1]",
        }
    }

    /// Checks `text` as the value of `what` (a flag or a spec key); the
    /// one format every bad value is reported in.
    fn check(self, what: &str, text: &str) -> Result<(), PpError> {
        let num = text.parse::<f64>().ok();
        let ok = match self {
            Rule::Switch | Rule::Str => true,
            Rule::U64 => text.parse::<u64>().is_ok(),
            Rule::U32 => text.parse::<u32>().is_ok(),
            Rule::Count => text.parse::<u32>().is_ok_and(|n| n >= 1),
            Rule::NonNeg => num.is_some_and(|x| x.is_finite() && x >= 0.0),
            Rule::Scale => num.is_some_and(|x| x.is_finite() && x > 0.0),
            Rule::Fraction => num.is_some_and(|x| (0.0..=1.0).contains(&x)),
        };
        if ok {
            Ok(())
        } else {
            Err(usage_err(format!(
                "bad {what} value `{text}` (expect {})",
                self.expects()
            )))
        }
    }
}

/// One row of [`FLAGS`].
struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage text; empty for a switch.
    metavar: &'static str,
    rule: Rule,
    /// The verbs that read the flag, space-separated; `*` is every verb.
    verbs: &'static str,
    help: &'static str,
}

impl Flag {
    fn read_by(&self, verb: &str) -> bool {
        self.verbs.split(' ').any(|v| v == "*" || v == verb)
    }
}

const fn flag(
    name: &'static str,
    metavar: &'static str,
    rule: Rule,
    verbs: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        metavar,
        rule,
        verbs,
        help,
    }
}

use Rule::{Count, Fraction, NonNeg, Scale, Str, Switch, U32, U64};

/// Every flag `pp` takes, each declared once: the parse loop gates and
/// checks argv against these rows, and the usage text is generated
/// from them.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--trace", "", Switch, "*", "record pipeline spans; print collapsed flamegraph stacks to stderr at exit (PP_TRACE=1 does the same)"),
    flag("--trace-out", "FILE", Str, "*", "write recorded spans as Chrome trace_event JSON (chrome://tracing, Perfetto)"),
    flag("--quiet", "", Switch, "*", "suppress all stderr diagnostics (PP_LOG=warn, info or debug sets the level)"),
    flag("--scale", "F", Scale, "run hot report cct stats verify annotate decode bench batch submit", "suite workload scale (default 1.0)"),
    flag("--config", "NAME", Str, "run stats verify batch submit", "pipeline: base, edge, flow, flow-hw, context-hw, context-flow or combined (default flow-hw for run, else combined)"),
    flag("--events", "LIST", Str, "run cct stats verify bench batch submit watch", "counter pair ev0,ev1 (default insts,dc_miss); watch: comma list of event kinds to show (admitted, queued, started, retrying, quarantined, done, state, metrics)"),
    flag("--threshold", "F", Fraction, "hot report stats", "hot-path share of misses (default 0.01)"),
    flag("--out", "FILE", Str, "cct stats merge bench fetch", "write the CCT profile, stats JSON, fleet profile, BENCH file or fetched artifact here"),
    flag("--max-uops", "N", U64, "run hot report cct stats verify annotate batch serve", "abort runs after N micro-ops (partial profile, exit 2)"),
    flag("--cct-cap", "N", U32, "run hot report cct stats verify annotate batch serve", "cap CCT records; overflow collapses DCG-style (default 0 = unlimited)"),
    flag("--fuel", "N", U64, "run hot report cct stats verify annotate bench batch serve", "guest µop budget; exhausting it is a typed limit error (batch/serve default 1e9, else unlimited)"),
    flag("--deadline", "S", NonNeg, "run hot report cct stats verify annotate bench batch serve submit status watch", "guest wall-clock deadline, 0 = none (stats/bench default 120); submit/status/watch: wait budget (default 600)"),
    flag("--against", "TARGET", Str, "verify", "the program a flow profile was collected from, enabling the flow-conservation walk"),
    flag("--clobber-pics", "READ", U64, "verify", "seed a counter clobber at that read index: the unreconcilable-wrap fault the wrap checks must catch"),
    flag("--strict", "", Switch, "merge", "the first corrupt or alien shard fails the merge (exit 3) instead of being quarantined"),
    flag("--checkpoint-dir", "DIR", Str, "merge batch serve status", "state directory: batch manifest and profiles, resumable merge fold, daemon state (default pp-serve-state)"),
    flag("--resume", "DIR", Str, "merge batch", "resume an interrupted batch or merge from DIR; the result is byte-identical to an uninterrupted run"),
    flag("--checkpoint-every", "N", Count, "merge serve", "shards (merge) or terminal jobs (serve) between checkpoint writes (default 8)"),
    flag("--inject", "SPEC", Str, "merge batch", "comma list of faults; batch: hang@I, panic@I[:N], transient@I[:N], corrupt@I[:N], truncate@W[:KEEP], halt@W; merge: halt@N"),
    flag("--metrics", "", Switch, "merge status", "print every counter, gauge and histogram of the fold's (merge) or daemon's (status) registry"),
    flag("--smoke", "", Switch, "bench", "tiny scale, one repeat, no BENCH file unless --out is given"),
    flag("--repeat", "N", Count, "bench", "time each case N times and keep the best (default 3)"),
    flag("--check", "FILE", Str, "bench", "regression guard against a recorded BENCH_*.json; never writes the trajectory"),
    flag("--tolerance", "F", NonNeg, "bench", "allowed relative regression for --check (default 0.02)"),
    flag("--emit-meta", "FILE", Str, "bench", "write the suite-wide dynamic micro-op mix (checked in at crates/usim/meta/uop_meta.json)"),
    flag("--jobs", "N", Count, "batch serve", "worker threads (default: the cores, at most 4)"),
    flag("--retries", "N", U32, "batch serve submit status fetch watch", "transient-failure retries per job; client verbs: reconnect/retry budget (default 2)"),
    flag("--seed", "N", U64, "batch serve submit status fetch watch chaos", "backoff-jitter seed (stored in the manifest), client retry-jitter or chaos plan-rotation seed (default 0)"),
    flag("--quarantine-cap", "N", U32, "batch serve", "keep at most N quarantined attempt-sets, evicting oldest first (default 0 = all)"),
    flag("--socket", "ADDR", Str, "serve submit status fetch watch", "daemon address: PATH, unix:PATH, tcp:HOST:PORT or HOST:PORT (default pp.sock)"),
    flag("--listen", "ADDR", Str, "serve chaos", "serve: also listen on TCP; chaos: the proxy's address (HOST:0 picks a port, reported on stdout)"),
    flag("--queue-cap", "N", Count, "serve", "bounded admission queue; a full queue rejects with `overloaded`, exit 4 (default 64)"),
    flag("--quota", "N", U32, "serve", "max in-flight jobs per client (default 0 = unlimited)"),
    flag("--max-conns", "N", U32, "serve", "concurrent-connection cap; excess get a typed `overloaded` refusal (default 64, 0 = unlimited)"),
    flag("--idle-timeout", "S", NonNeg, "serve", "close connections idle between requests (default 300, 0 = never)"),
    flag("--io-timeout", "S", NonNeg, "serve", "per-frame read / per-write deadline, the slow-loris cutoff (default 10, 0 = none)"),
    flag("--inject-every", "SPEC", Str, "serve", "soak faults: comma list of panic=N, transient=N, corrupt=N, hitting every N-th job's first attempt"),
    flag("--timeout", "S", NonNeg, "submit status fetch watch", "per-reply deadline; an unresponsive daemon is a transport failure, exit 4 (default 30)"),
    flag("--client", "NAME", Str, "submit watch", "submit: client name for quota accounting (default cli); watch: only that client's events"),
    flag("--wait", "", Switch, "submit", "block until the job is terminal"),
    flag("--wait-idle", "", Switch, "status", "block until the daemon is idle"),
    flag("--prom", "", Switch, "status", "Prometheus text exposition of the daemon's registry (implies --metrics)"),
    flag("--job", "ID", U64, "watch", "only that job's events"),
    flag("--since", "SEQ", U64, "watch", "replay retained events from that bus sequence number first (0 = all)"),
    flag("--json", "", Switch, "watch", "raw NDJSON frames, one per line"),
    flag("--upstream", "ADDR", Str, "chaos", "the daemon the proxy forwards to (tcp:HOST:PORT)"),
    flag("--plan", "SPEC", Str, "chaos", "comma list of ok, delay:MS, throttle:BYTES, tear:K, reset:M, blackhole, dealt by accept order (default ok)"),
];

/// A verb's entry point; it reads its operands and flags from [`Args`].
type Handler = fn(&Args) -> Result<(), PpError>;

/// Every verb: its name, its operands in the usage text, and its entry
/// point.
#[rustfmt::skip]
const VERBS: &[(&str, &str, Handler)] = &[
    ("list", "", cmd_list),
    ("run", "<target>", cmd_run),
    ("hot", "<target>", cmd_hot),
    ("report", "<target>", cmd_report),
    ("cct", "<target>", cmd_cct),
    ("stats", "<file.cct|target>", cmd_stats),
    ("verify", "<file|dir|target>", verify_cmd::run_verify),
    ("merge", "<shards|dirs...>", merge_cmd::run_merge_cmd),
    ("annotate", "<target> <proc>", cmd_annotate),
    ("decode", "<target> <proc> <sum>", cmd_decode),
    ("bench", "", bench_cmd::run_bench),
    ("batch", "[targets...]", batch_cmd::run_batch),
    #[cfg(unix)]
    ("serve", "", serve_cmd::run_serve),
    #[cfg(unix)]
    ("submit", "<target>", serve_cmd::run_submit),
    #[cfg(unix)]
    ("status", "[job-id]", serve_cmd::run_status),
    #[cfg(unix)]
    ("fetch", "[artifact]", serve_cmd::run_fetch),
    #[cfg(unix)]
    ("watch", "", serve_cmd::run_watch),
    ("chaos", "", chaos_cmd::run_chaos),
];

/// One command line, gated and checked against [`FLAGS`]: the verb, its
/// operands, and the flags that were given. The readers return `None`
/// for a flag that was not given; each verb applies its own default.
struct Args {
    verb: &'static str,
    handler: Handler,
    operands: Vec<String>,
    /// Flag name → value (empty for a switch); a repeated flag keeps its
    /// last value.
    given: BTreeMap<&'static str, String>,
}

impl Args {
    /// The one parse loop: every `--flag` must be in a [`FLAGS`] row that
    /// names `verb`, and its value must pass the row's rule.
    fn parse(verb: &str, argv: &[String]) -> Result<Args, PpError> {
        let &(verb, _, handler) = VERBS
            .iter()
            .find(|v| v.0 == verb)
            .ok_or_else(|| usage_err(usage(None)))?;
        let mut args = Args {
            verb,
            handler,
            operands: Vec::new(),
            given: BTreeMap::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                args.operands.push(a.clone());
                continue;
            }
            let flag = FLAGS
                .iter()
                .find(|f| f.name == a && f.read_by(verb))
                .ok_or_else(|| {
                    usage_err(format!(
                        "`pp {verb}` does not take {a}\n{}",
                        usage(Some(verb))
                    ))
                })?;
            let value = match flag.rule {
                Rule::Switch => String::new(),
                rule => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage_err(format!("{a} needs a value")))?;
                    rule.check(flag.name, v)?;
                    v.clone()
                }
            };
            args.given.insert(flag.name, value);
        }
        Ok(args)
    }

    /// The raw value of `flag`.
    fn str(&self, flag: &str) -> Option<&str> {
        debug_assert!(
            FLAGS.iter().any(|f| f.name == flag && f.read_by(self.verb)),
            "`pp {}` reads {flag}, which its FLAGS row does not list",
            self.verb
        );
        self.given.get(flag).map(String::as_str)
    }

    /// Was the switch `flag` given?
    fn on(&self, flag: &str) -> bool {
        self.str(flag).is_some()
    }

    /// The value of `flag` as a number; the parse loop has already
    /// checked it against the flag's rule.
    fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.str(flag)
            .map(|v| v.parse().ok().expect("value checked against its rule"))
    }

    /// The operands, when there are exactly `N`; else the verb's usage.
    fn operands<const N: usize>(&self) -> Result<[&str; N], PpError> {
        let all: Vec<&str> = self.operands.iter().map(String::as_str).collect();
        all.try_into()
            .map_err(|_| usage_err(usage(Some(self.verb))))
    }

    /// The operand of a verb that takes none or one.
    fn optional_operand(&self) -> Result<Option<&str>, PpError> {
        match self.operands.as_slice() {
            [] => Ok(None),
            [one] => Ok(Some(one)),
            _ => Err(usage_err(usage(Some(self.verb)))),
        }
    }

    fn scale(&self) -> f64 {
        self.get("--scale").unwrap_or(1.0)
    }

    fn threshold(&self) -> f64 {
        self.get("--threshold").unwrap_or(0.01)
    }

    /// The `--events` counter pair (every verb but `watch`, which reads
    /// the flag as an event-kind filter).
    fn events(&self) -> Result<(HwEvent, HwEvent), PpError> {
        self.str("--events")
            .map_or(Ok(DEFAULT_EVENTS), parse_events)
    }

    /// The `--config` pipeline with the `--events` pair; `default` names
    /// the verb's pipeline when `--config` is absent.
    fn run_config(&self, default: &str) -> Result<RunConfig, PpError> {
        config_by_name(self.str("--config").unwrap_or(default), self.events()?)
    }

    /// `--jobs`, defaulting to the host's cores, at most 4.
    fn workers(&self) -> usize {
        self.get("--jobs").unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(4)
        })
    }

    /// The checkpoint directory of `pp batch` and `pp merge`, and whether
    /// to resume from it. `--resume DIR` names the directory itself, so a
    /// `--checkpoint-dir` naming another one is refused rather than
    /// dropped.
    fn checkpoint(&self) -> Result<(Option<&str>, bool), PpError> {
        match (self.str("--resume"), self.str("--checkpoint-dir")) {
            (Some(resume), Some(dir)) if resume != dir => Err(usage_err(format!(
                "--resume {resume} and --checkpoint-dir {dir} name different directories"
            ))),
            (Some(resume), _) => Ok((Some(resume), true)),
            (None, dir) => Ok((dir, false)),
        }
    }

    fn profiler(&self) -> Profiler {
        let mut mc = MachineConfig::default();
        if let Some(uops) = self.get("--max-uops") {
            mc.max_instructions = uops;
        }
        Profiler::new(mc)
            .with_cct_record_cap(self.get("--cct-cap").unwrap_or(0))
            .with_limits(self.guest_limits(0.0))
    }

    /// The guest resource limits the flags ask for. Commands that want a
    /// conservative safety net (`pp stats`, `pp bench`) pass a non-zero
    /// `default_deadline_s`, applied only when `--deadline` was absent;
    /// an explicit `--deadline 0` always means "no deadline".
    fn guest_limits(&self, default_deadline_s: f64) -> GuestLimits {
        let mut limits = GuestLimits::none();
        if let Some(fuel) = self.get("--fuel") {
            limits = limits.with_fuel(fuel);
        }
        let deadline = self.get("--deadline").unwrap_or(default_deadline_s);
        if deadline > 0.0 {
            limits = limits.with_deadline(Duration::from_secs_f64(deadline));
        }
        limits
    }
}

/// The usage text, generated from [`VERBS`] and [`FLAGS`]: for `None`
/// every verb with its flags and then every flag's help line, for a verb
/// its own line and the help of the flags it takes.
fn usage(verb: Option<&str>) -> String {
    let mut text = String::from("usage:");
    for (name, operands, _) in VERBS.iter().filter(|v| verb.is_none_or(|x| x == v.0)) {
        let flags = FLAGS.iter().filter(|f| f.verbs != "*" && f.read_by(name));
        let flags = flags.map(|f| format!("[{} {}]", f.name, f.metavar).replace(" ]", "]"));
        text.push_str(&format!("\n  pp {name}:"));
        wrap(
            &mut text,
            operands.split(' ').map(String::from).chain(flags),
            6,
        );
    }
    text.push_str("\nevery verb also takes [--trace] [--trace-out FILE] [--quiet]\nflags:");
    for f in FLAGS.iter().filter(|f| verb.is_none_or(|v| f.read_by(v))) {
        text.push_str(&format!("\n  {:<22}", format!("{} {}", f.name, f.metavar)));
        wrap(&mut text, f.help.split(' ').map(String::from), 25);
    }
    text.push_str(
        "\n<target> is a suite benchmark (see `pp list`) or a textual IR file\n\
         exit codes: 0 ok, 1 usage, 2 aborted run or integrity violation,\n\
         \x20           3 i/o or corrupt profile, 4 service unavailable\n\
         \x20           (overloaded/quota/draining/unreachable)",
    );
    text
}

/// Appends each of `words` after a space, first starting a new line
/// indented to column `indent` when the word would pass column 78.
fn wrap(text: &mut String, words: impl Iterator<Item = String>, indent: usize) {
    for word in words.filter(|w| !w.is_empty()) {
        let line = &text[text.rfind('\n').map_or(0, |i| i + 1)..];
        if line.chars().count() + 1 + word.chars().count() > 78 {
            text.push('\n');
            text.push_str(&" ".repeat(indent - 1));
        }
        text.push(' ');
        text.push_str(&word);
    }
}

fn usage_err(msg: impl Into<String>) -> PpError {
    PpError::Usage(msg.into())
}

fn parse_event(name: &str) -> Result<HwEvent, PpError> {
    HwEvent::ALL
        .iter()
        .copied()
        .find(|e| e.mnemonic() == name)
        .ok_or_else(|| {
            let all: Vec<&str> = HwEvent::ALL.iter().map(|e| e.mnemonic()).collect();
            usage_err(format!(
                "unknown event `{name}`; one of: {}",
                all.join(", ")
            ))
        })
}

/// Parses an `ev0,ev1` counter pair (`--events`, or a job spec's
/// `events=` key).
fn parse_events(spec: &str) -> Result<(HwEvent, HwEvent), PpError> {
    let (a, b) = spec
        .split_once(',')
        .ok_or_else(|| usage_err(format!("bad events `{spec}` (expect `ev0,ev1`)")))?;
    Ok((parse_event(a.trim())?, parse_event(b.trim())?))
}

fn load_target(target: &str, scale: f64) -> Result<(String, Program), PpError> {
    if pp::workloads::SUITE_NAMES.contains(&target) {
        let spec = pp::workloads::spec_for(target)
            .expect("suite name has a spec")
            .scaled(scale);
        return Ok((target.to_string(), pp::workloads::build(&spec)));
    }
    if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target).map_err(|e| PpError::io(target, e))?;
        let program =
            pp::ir::parse::parse_program(&text).map_err(|e| usage_err(format!("{target}: {e}")))?;
        return Ok((target.to_string(), program));
    }
    Err(usage_err(format!(
        "`{target}` is neither a suite benchmark (try `pp list`) nor an IR file"
    )))
}

/// Maps a `--config` name (or a service job spec's `config=` key) onto
/// a [`RunConfig`] with the given counter selection.
fn config_by_name(name: &str, events: (HwEvent, HwEvent)) -> Result<RunConfig, PpError> {
    Ok(match name {
        "base" => RunConfig::Base,
        "edge" => RunConfig::EdgeFreq,
        "flow" => RunConfig::FlowFreq,
        "flow-hw" => RunConfig::FlowHw { events },
        "context-hw" => RunConfig::ContextHw { events },
        "context-flow" => RunConfig::ContextFlow,
        "combined" => RunConfig::CombinedHw { events },
        other => return Err(usage_err(format!("unknown config `{other}`"))),
    })
}

fn find_proc(program: &Program, name: &str) -> Result<ProcId, PpError> {
    program
        .find_procedure(name)
        .ok_or_else(|| usage_err(format!("no procedure named `{name}`")))
}

/// Runs `program` under `config`. An aborted run is not an immediate
/// error: a warning goes to stderr, the first fault is stashed in
/// `fault`, and the partial report comes back so the command can finish
/// printing before the process exits with code 2.
fn profiled(
    profiler: &Profiler,
    program: &Program,
    config: RunConfig,
    fault: &mut Option<ExecError>,
) -> Result<RunOutcome, PpError> {
    let run = profiler.run(program, config)?;
    note_fault(&run, fault);
    Ok(run)
}

/// Warns about (and stashes) the fault of an aborted run, if any.
fn note_fault(run: &RunOutcome, fault: &mut Option<ExecError>) {
    if let Some(e) = &run.fault {
        let hint = if matches!(e, ExecError::LimitExceeded(_)) {
            " — raise --fuel/--deadline, or pass 0 to disable the limit"
        } else {
            ""
        };
        pp::obs::warn!(
            "{} run aborted ({e}{hint}); reporting the partial profile",
            run.config
        );
        fault.get_or_insert_with(|| e.clone());
    }
}

/// Ends a command: exit code 2 when any run was cut short.
fn finish(fault: Option<ExecError>) -> Result<(), PpError> {
    match fault {
        None => Ok(()),
        Some(e) => Err(PpError::Aborted(e)),
    }
}

fn cmd_list(_: &Args) -> Result<(), PpError> {
    println!("{:<14} {:>5}  description", "benchmark", "suite");
    for name in pp::workloads::SUITE_NAMES {
        let spec = pp::workloads::spec_for(name).expect("known");
        println!(
            "{:<14} {:>5}  {} kernels, {} mids, bias {}%, {} diamonds{}",
            name,
            if spec.cint { "CINT" } else { "CFP" },
            spec.num_kernels,
            spec.num_mids,
            spec.hot_bias,
            spec.diamonds,
            if spec.recursion_depth > 0 {
                ", recursive"
            } else {
                ""
            },
        );
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), PpError> {
    let [target] = args.operands()?;
    let config = args.run_config("flow-hw")?;
    let (name, program) = load_target(target, args.scale())?;
    let profiler = args.profiler();
    let mut fault = None;
    let base = profiled(&profiler, &program, RunConfig::Base, &mut fault)?;
    let run = profiled(&profiler, &program, config, &mut fault)?;
    println!("== {name} under {} ==", run.config);
    if !run.is_complete() {
        println!("(partial profile: the run was aborted)");
    }
    println!(
        "cycles:       {} ({:.2}x base)",
        run.cycles(),
        run.cycles() as f64 / base.cycles().max(1) as f64
    );
    println!("instructions: {}", run.machine.metrics.get(HwEvent::Insts));
    println!("L1 D-misses:  {}", run.machine.metrics.get(HwEvent::DcMiss));
    if let Some(flow) = &run.flow {
        println!("paths:        {} executed", flow.total_paths_executed());
    }
    if let Some(cct) = &run.cct {
        let stats = CctStats::compute(cct);
        println!(
            "cct:          {} records, {} bytes, height {} max",
            stats.nodes, stats.file_size, stats.height_max
        );
        if cct.overflow_enters() > 0 {
            println!(
                "              (record cap hit: {} enters collapsed onto {} overflow records)",
                cct.overflow_enters(),
                cct.num_overflow_records()
            );
        }
    }
    finish(fault)
}

fn cmd_hot(args: &Args) -> Result<(), PpError> {
    let [target] = args.operands()?;
    let (name, program) = load_target(target, args.scale())?;
    let profiler = args.profiler();
    let threshold = args.threshold();
    let mut fault = None;
    let run = profiled(
        &profiler,
        &program,
        RunConfig::FlowHw {
            events: (HwEvent::Insts, HwEvent::DcMiss),
        },
        &mut fault,
    )?;
    let flow = run.flow.as_ref().expect("flow profile");
    let inst = run.instrumented.as_ref().expect("manifest");
    let paths = analysis::hot_paths(flow, threshold);
    println!(
        "== {name}: {} hot paths (>= {:.2}% of {} misses) cover {:.1}% ==",
        paths.hot.len(),
        100.0 * threshold,
        paths.total_miss,
        100.0 * paths.hot_miss_fraction()
    );
    for p in paths.hot.iter().take(20) {
        let blocks = inst
            .decode_path(p.proc, p.sum)
            .map(|(bs, _)| {
                bs.iter()
                    .map(|b| b.0.to_string())
                    .collect::<Vec<_>>()
                    .join("-")
            })
            .unwrap_or_default();
        println!(
            "  {:<14} sum={:<6} freq={:<8} miss={:<8} {:?}  [{blocks}]",
            program.procedure(p.proc).name,
            p.sum,
            p.freq,
            p.miss,
            p.class
        );
    }
    let procs = analysis::hot_procedures(flow, &program, threshold);
    let hot: Vec<&analysis::ProcStat> = procs.hot.iter().collect();
    println!(
        "\n{} hot procedures cover {:.1}% of misses (avg {:.1} paths each)",
        hot.len(),
        100.0 * procs.miss_fraction(&hot),
        analysis::HotProcReport::avg_paths(&hot)
    );
    finish(fault)
}

fn cmd_report(args: &Args) -> Result<(), PpError> {
    let [target] = args.operands()?;
    let (name, program) = load_target(target, args.scale())?;
    let profiler = args.profiler();
    let mut fault = None;
    let base = profiled(&profiler, &program, RunConfig::Base, &mut fault)?;
    println!("================================================================");
    println!("PP profile report: {name}");
    println!("================================================================");
    println!(
        "base: {} cycles, {} instructions, {} L1 D-misses
",
        base.cycles(),
        base.machine.metrics.get(HwEvent::Insts),
        base.machine.metrics.get(HwEvent::DcMiss)
    );

    // Overheads of the main configurations.
    println!("-- profiling overheads (x base cycles) --");
    for config in [
        RunConfig::EdgeFreq,
        RunConfig::FlowFreq,
        RunConfig::FlowHw {
            events: (HwEvent::Insts, HwEvent::DcMiss),
        },
        RunConfig::ContextHw {
            events: (HwEvent::Insts, HwEvent::DcMiss),
        },
        RunConfig::ContextFlow,
    ] {
        let cycles = profiled(&profiler, &program, config, &mut fault)?.cycles();
        println!(
            "  {:<18} {:.2}x",
            config.to_string(),
            cycles as f64 / base.cycles().max(1) as f64
        );
    }

    // Hot paths and procedures.
    let run = profiled(
        &profiler,
        &program,
        RunConfig::FlowHw {
            events: (HwEvent::Insts, HwEvent::DcMiss),
        },
        &mut fault,
    )?;
    let flow = run.flow.as_ref().expect("profile");
    let inst = run.instrumented.as_ref().expect("manifest");
    let paths = analysis::hot_paths(flow, args.threshold());
    println!(
        "
-- hot paths ({} of {} executed cover {:.1}% of misses) --",
        paths.hot.len(),
        paths.executed,
        100.0 * paths.hot_miss_fraction()
    );
    for p in paths.hot.iter().take(8) {
        println!(
            "  {:<16} sum={:<5} freq={:<7} miss={:<7} {:?}",
            program.procedure(p.proc).name,
            p.sum,
            p.freq,
            p.miss,
            p.class
        );
    }
    let procs = analysis::hot_procedures(flow, &program, args.threshold());
    let hot_refs: Vec<&analysis::ProcStat> = procs.hot.iter().collect();
    println!(
        "
-- hot procedures ({} cover {:.1}% of misses, {:.1} paths each) --",
        procs.hot.len(),
        100.0 * procs.miss_fraction(&hot_refs),
        analysis::HotProcReport::avg_paths(&hot_refs)
    );
    for p in procs.hot.iter().take(8) {
        println!(
            "  {:<16} inst={:<9} miss={:<7} paths={}",
            p.name, p.inst, p.miss, p.paths_executed
        );
    }
    println!(
        "
-- section 6.4.3 -- blocks on hot paths lie on {:.1} executed paths each",
        analysis::block_path_multiplicity(inst, flow, &paths)
    );

    // CCT summary.
    let cct_run = profiled(
        &profiler,
        &program,
        RunConfig::CombinedHw {
            events: (HwEvent::Insts, HwEvent::DcMiss),
        },
        &mut fault,
    )?;
    let stats = CctStats::compute(cct_run.cct.as_ref().expect("cct"));
    println!(
        "
-- calling context tree -- {} records, {} bytes, height {} max,          {} of {} sites one-path",
        stats.nodes,
        stats.file_size,
        stats.height_max,
        stats.call_sites_one_path,
        stats.call_sites_used
    );

    // The combination: hot (context, path) pairs — the interprocedural
    // approximation.
    // Threshold 0: rank every pair, display the top handful.
    let (ctx_paths, _) = analysis::hot_context_paths(cct_run.cct.as_ref().expect("cct"), 0.0);
    println!("\n-- hot (context, path) pairs (interprocedural approximation) --");
    for cp in ctx_paths.iter().take(6) {
        let chain: Vec<String> = cp
            .context
            .iter()
            .map(|&p| program.procedure(pp::ir::ProcId(p)).name.clone())
            .collect();
        println!(
            "  {} [path {}] freq={} miss={}",
            chain.join(" -> "),
            cp.sum,
            cp.freq,
            cp.m1
        );
    }
    finish(fault)
}

fn cmd_cct(args: &Args) -> Result<(), PpError> {
    let [target] = args.operands()?;
    let config = RunConfig::CombinedHw {
        events: args.events()?,
    };
    let (name, program) = load_target(target, args.scale())?;
    let mut fault = None;
    let run = profiled(&args.profiler(), &program, config, &mut fault)?;
    let cct = run.cct.as_ref().expect("cct");
    let stats = CctStats::compute(cct);
    println!("== calling context tree of {name} ==");
    println!("records:         {}", stats.nodes);
    println!("file size:       {} bytes", stats.file_size);
    println!("avg node size:   {:.1} bytes", stats.avg_node_size);
    println!("avg out degree:  {:.1}", stats.avg_out_degree);
    println!(
        "height:          {:.1} avg / {} max",
        stats.height_avg, stats.height_max
    );
    println!("max replication: {}", stats.max_replication);
    println!(
        "call sites:      {} used / {} one-path",
        stats.call_sites_used, stats.call_sites_one_path
    );
    if cct.overflow_enters() > 0 {
        println!(
            "record cap:      {} enters collapsed onto {} overflow records",
            cct.overflow_enters(),
            cct.num_overflow_records()
        );
    }
    if let Some(path) = args.str("--out") {
        let mut file = std::fs::File::create(path).map_err(|e| PpError::io(path, e))?;
        pp::cct::write_cct(cct, &mut file)?;
        println!("wrote profile to {path}");
    }
    finish(fault)
}

/// `pp stats` wears two hats: handed a saved `.cct` file it prints the
/// profile's statistics; handed a workload it runs the overhead
/// accounting (per-phase wall times, internals metrics, and the
/// instrumented-vs-base dilation table — the paper's Table 5 analogue).
fn cmd_stats(args: &Args) -> Result<(), PpError> {
    let [arg] = args.operands()?;
    // Unlike most commands, stats defaults to the combined pipeline so
    // the report covers the CCT and path tables too.
    let config = args.run_config("combined")?;
    match sniff_stats_input(arg) {
        StatsInput::CctProfile => cmd_stats_file(arg),
        StatsInput::Opaque(reason) => Err(PpError::Integrity(IntegrityError::Artifact(
            SerializeError::Format(format!("{arg}: {reason}")),
        ))),
        StatsInput::Target => cmd_stats_overhead(arg, config, args),
    }
}

/// How `pp stats` should treat its argument.
enum StatsInput {
    /// A serialized CCT profile (`PPCCT` magic): print its statistics.
    CctProfile,
    /// A file that is neither a readable profile nor plausible IR text
    /// (empty, wrong magic, or opaque binary): a typed integrity error,
    /// never a parser panic or a misleading usage message.
    Opaque(String),
    /// A suite name or IR file: run the overhead accounting.
    Target,
}

/// Classifies the `pp stats` argument by sniffing the file's leading
/// bytes, so corrupt or mislabeled profiles surface as integrity
/// errors (exit 2) instead of falling into the IR parser.
fn sniff_stats_input(path: &str) -> StatsInput {
    if !std::path::Path::new(path).is_file() {
        return StatsInput::Target; // suite names are not files
    }
    let Ok(head) = read_head(path, 512) else {
        return StatsInput::Target; // unreadable: let target mode report I/O
    };
    if head.is_empty() {
        return StatsInput::Opaque("empty file is not a profile or IR program".into());
    }
    if head.starts_with(b"PPCCT") {
        return StatsInput::CctProfile;
    }
    if head.starts_with(b"PPFLOW") || head.starts_with(b"PPBAT") {
        let magic = String::from_utf8_lossy(&head[..head.len().min(7)]).into_owned();
        return StatsInput::Opaque(format!(
            "{} artifact is not a CCT profile (try `pp verify`)",
            magic.trim_end()
        ));
    }
    if head.starts_with(b"PP") || head.contains(&0) {
        return StatsInput::Opaque("unrecognized binary file (bad or truncated magic)".into());
    }
    StatsInput::Target
}

/// Reads up to `limit` leading bytes of `path` for magic sniffing.
fn read_head(path: &str, limit: usize) -> std::io::Result<Vec<u8>> {
    use std::io::Read as _;
    let mut head = Vec::with_capacity(limit);
    std::fs::File::open(path)?
        .take(limit as u64)
        .read_to_end(&mut head)?;
    Ok(head)
}

fn cmd_stats_file(path: &str) -> Result<(), PpError> {
    let mut file = std::fs::File::open(path).map_err(|e| PpError::io(path, e))?;
    // A file that says it is a CCT profile but fails to decode is an
    // integrity finding (exit 2), not an I/O accident.
    let cct = pp::cct::read_cct(&mut file).map_err(|e| match e {
        SerializeError::Io(src) => PpError::io(path, src),
        other => PpError::Integrity(IntegrityError::Artifact(other)),
    })?;
    let stats = CctStats::compute(&cct);
    println!("== {path} ==");
    println!("records:         {}", stats.nodes);
    println!("file size:       {} bytes (payload model)", stats.file_size);
    println!("avg out degree:  {:.1}", stats.avg_out_degree);
    println!(
        "height:          {:.1} avg / {} max",
        stats.height_avg, stats.height_max
    );
    println!(
        "call sites:      {} used / {} one-path",
        stats.call_sites_used, stats.call_sites_one_path
    );
    if cct.config().max_records != 0 {
        println!("record cap:      {}", cct.config().max_records);
    }
    Ok(())
}

/// The overhead-accounting mode of `pp stats`: run `target` once
/// uninstrumented and once under the profiling pipeline, and report
/// where the time goes (tracing spans), what the internals did (the
/// metrics registry), and how much each hardware metric dilated — the
/// reproduction's analogue of the paper's Table 5 methodology.
fn cmd_stats_overhead(target: &str, config: RunConfig, args: &Args) -> Result<(), PpError> {
    // The per-phase table needs spans whether or not --trace was given.
    pp::obs::trace::enable(true);
    let _ = pp::obs::trace::take_events(); // start from a clean buffer

    let (name, program) = {
        let _span = pp::obs::span!("load");
        load_target(target, args.scale())?
    };
    {
        let _span = pp::obs::span!("verify");
        pp::ir::verify::verify_program(&program).map_err(|e| usage_err(format!("{name}: {e}")))?;
    }
    let (setup_events, _) = pp::obs::trace::take_events();

    // A conservative safety-net deadline: accounting runs are long, and
    // without a bound a wedged guest would hang the command forever.
    let profiler = args
        .profiler()
        .with_limits(args.guest_limits(ACCOUNTING_DEADLINE_S));
    let events = args.events()?;
    let mut fault = None;

    // The uninstrumented baseline, wall-timed.
    let t = Instant::now();
    let base = profiled(&profiler, &program, RunConfig::Base, &mut fault)?;
    let base_wall = t.elapsed().as_secs_f64();
    let (base_events, _) = pp::obs::trace::take_events();

    // The same configuration unobserved, wall-timed: the yardstick for
    // what observing the run below costs. Its spans are dropped so the
    // phase table describes one pipeline.
    let t = Instant::now();
    profiler.run(&program, config)?;
    let plain_wall = t.elapsed().as_secs_f64();
    let _ = pp::obs::trace::take_events();

    // The instrumented run, observed: the sink tallies what only the run
    // can see and folds it into the registry at the end, the pipeline
    // records its phase spans.
    let mut reg = pp::obs::Registry::new();
    let t = Instant::now();
    let run = profiler.run_observed(&program, config, &mut reg)?;
    let inst_wall = t.elapsed().as_secs_f64();
    note_fault(&run, &mut fault);

    // Post-run analyses, each its own phase.
    if let Some(flow) = &run.flow {
        let _span = pp::obs::span!("path_regen");
        let _ = analysis::hot_paths(flow, args.threshold());
    }
    if let Some(cct) = &run.cct {
        let _span = pp::obs::span!("cct_stats");
        let _ = CctStats::compute(cct);
    }
    {
        let _span = pp::obs::span!("serialize");
        pp::profiler::observe::record_outcome(&mut reg, &run);
    }
    let (run_events, dropped) = pp::obs::trace::take_events();
    if dropped > 0 {
        pp::obs::warn!("trace buffer dropped {dropped} oldest spans");
    }
    // The loss is a metric too, so `--out` JSON and the internals
    // snapshot carry it alongside the phase totals.
    pp::obs::Recorder::counter(&mut reg, "trace.dropped", dropped);

    println!(
        "== pp stats: {name} under {} (scale {}) ==",
        run.config,
        args.scale()
    );
    if !run.is_complete() {
        println!("(partial profile: the run was aborted)");
    }

    // Per-phase wall time: setup plus the instrumented pipeline (the
    // base run's spans are excluded so phases describe one pipeline).
    let mut phase_events = setup_events.clone();
    phase_events.extend_from_slice(&run_events);
    let phases = pp::obs::trace::totals_by_name(&phase_events);
    println!("\n-- per-phase wall time (instrumented pipeline) --");
    for (phase, ns) in &phases {
        println!("  {:<14} {:>10.3} ms", phase, *ns as f64 / 1e6);
    }

    // The dilation table.
    let dilation = |b: f64, i: f64| if b > 0.0 { i / b } else { 0.0 };
    let mut events_of_interest = vec![HwEvent::Cycles, HwEvent::Insts];
    for ev in [events.0, events.1] {
        if !events_of_interest.contains(&ev) {
            events_of_interest.push(ev);
        }
    }
    println!("\n-- dilation vs uninstrumented base run (Table 5 analogue) --");
    println!(
        "  {:<14} {:>14} {:>14} {:>9}",
        "metric", "base", "instrumented", "dilation"
    );
    println!(
        "  {:<14} {:>11.3} ms {:>11.3} ms {:>8.2}x",
        "wall",
        base_wall * 1e3,
        inst_wall * 1e3,
        dilation(base_wall, inst_wall)
    );
    println!(
        "  {:<14} {:>14} {:>14} {:>8.2}x",
        "uops",
        base.machine.uops,
        run.machine.uops,
        dilation(base.machine.uops as f64, run.machine.uops as f64)
    );
    for ev in &events_of_interest {
        let (b, i) = (base.machine.metrics.get(*ev), run.machine.metrics.get(*ev));
        println!(
            "  {:<14} {:>14} {:>14} {:>8.2}x",
            ev.mnemonic(),
            b,
            i,
            dilation(b as f64, i as f64)
        );
    }

    let obs_overhead = dilation(plain_wall, inst_wall);
    println!(
        "\nobservation overhead: {obs_overhead:.2}x ({:.3} ms observed vs {:.3} ms unobserved)",
        inst_wall * 1e3,
        plain_wall * 1e3
    );

    println!("\n-- internals metrics --");
    print!("{}", reg.snapshot());

    if let Some(path) = args.str("--out") {
        let json = stats_json(
            &name,
            &run,
            &base,
            (args.scale(), events),
            (base_wall, inst_wall, obs_overhead),
            &phases,
            &reg,
        );
        std::fs::write(path, json).map_err(|e| PpError::io(path, e))?;
        println!("\nwrote stats to {path}");
    }

    // Everything recorded, in chronological order, for --trace-out.
    let mut all_events = setup_events;
    all_events.extend_from_slice(&base_events);
    all_events.extend_from_slice(&run_events);
    emit_trace(args, &all_events, dropped)?;
    finish(fault)
}

/// Renders the machine-readable form of the overhead report (`pp stats
/// --out`); the schema round-trips through `pp::obs::json`. The tuples
/// hold the scale and counter pair, and the base and instrumented wall
/// seconds and the observation overhead.
fn stats_json(
    name: &str,
    run: &RunOutcome,
    base: &RunOutcome,
    (scale, events): (f64, (HwEvent, HwEvent)),
    (base_wall, inst_wall, obs_overhead): (f64, f64, f64),
    phases: &std::collections::BTreeMap<&'static str, u64>,
    reg: &pp::obs::Registry,
) -> String {
    use pp::obs::Json;
    let dilation = |b: f64, i: f64| Json::Num(if b > 0.0 { i / b } else { 0.0 });
    let mut dilations = vec![(
        "uops".to_string(),
        dilation(base.machine.uops as f64, run.machine.uops as f64),
    )];
    let mut events_of_interest = vec![HwEvent::Cycles, HwEvent::Insts];
    for ev in [events.0, events.1] {
        if !events_of_interest.contains(&ev) {
            events_of_interest.push(ev);
        }
    }
    for ev in &events_of_interest {
        let (b, i) = (base.machine.metrics.get(*ev), run.machine.metrics.get(*ev));
        dilations.push((ev.mnemonic().to_string(), dilation(b as f64, i as f64)));
    }
    let phases_us: Vec<(String, Json)> = phases
        .iter()
        .map(|(k, ns)| (k.to_string(), Json::Num(*ns as f64 / 1e3)))
        .collect();
    let metrics = pp::obs::json::parse(&reg.to_json()).unwrap_or(Json::Null);
    let doc = Json::Obj(vec![
        ("target".to_string(), Json::Str(name.to_string())),
        ("config".to_string(), Json::Str(run.config.to_string())),
        ("scale".to_string(), Json::Num(scale)),
        ("complete".to_string(), Json::Bool(run.is_complete())),
        (
            "wall".to_string(),
            Json::Obj(vec![
                ("base_s".to_string(), Json::Num(base_wall)),
                ("instrumented_s".to_string(), Json::Num(inst_wall)),
                ("dilation".to_string(), dilation(base_wall, inst_wall)),
            ]),
        ),
        ("obs_overhead_x".to_string(), Json::Num(obs_overhead)),
        ("dilation".to_string(), Json::Obj(dilations)),
        ("phases_us".to_string(), Json::Obj(phases_us)),
        ("metrics".to_string(), metrics),
    ]);
    let mut text = doc.render();
    text.push('\n');
    text
}

/// Renders any recorded spans the way the trace flags asked for:
/// `--trace-out FILE` writes Chrome trace_event JSON, `--trace` prints
/// the collapsed flamegraph stacks to stderr. `dropped` is the ring
/// buffer's overflow count; both renderings surface it so a truncated
/// trace never reads as a complete one.
fn emit_trace(args: &Args, events: &[pp::obs::SpanEvent], dropped: u64) -> Result<(), PpError> {
    if let Some(path) = args.str("--trace-out") {
        let json = pp::obs::trace::chrome_trace(events, dropped);
        std::fs::write(path, json).map_err(|e| PpError::io(path, e))?;
        pp::obs::info!("wrote {} trace events to {path}", events.len());
    }
    if args.on("--trace") {
        eprint!("{}", pp::obs::trace::collapsed_stacks(events, dropped));
    }
    Ok(())
}

fn cmd_annotate(args: &Args) -> Result<(), PpError> {
    let [target, proc_name] = args.operands()?;
    let (_, program) = load_target(target, args.scale())?;
    let pid = find_proc(&program, proc_name)?;
    let mut fault = None;
    let run = profiled(
        &args.profiler(),
        &program,
        RunConfig::FlowHw {
            events: (HwEvent::Insts, HwEvent::DcMiss),
        },
        &mut fault,
    )?;
    let attr = annotate::block_attribution(
        run.instrumented.as_ref().expect("manifest"),
        run.flow.as_ref().expect("profile"),
    );
    print!(
        "{}",
        annotate::annotated_listing(program.procedure(pid), pid, &attr)
    );
    println!(
        "\n(avg top-path share across profile: {:.2} — block numbers rarely \
         identify a single responsible path)",
        annotate::avg_top_path_share(&attr)
    );
    finish(fault)
}

fn cmd_decode(args: &Args) -> Result<(), PpError> {
    let [target, proc_name, sum_text] = args.operands()?;
    let (_, program) = load_target(target, args.scale())?;
    let pid = find_proc(&program, proc_name)?;
    let sum: u64 = sum_text.parse().map_err(|_| usage_err("bad path sum"))?;
    let paths = pp::pathprof::ProcPaths::analyze(program.procedure(pid))
        .map_err(|e| usage_err(e.to_string()))?;
    if sum >= paths.num_paths() {
        return Err(usage_err(format!(
            "path sum {sum} out of range ({} potential paths)",
            paths.num_paths()
        )));
    }
    let (blocks, kind) = paths.decode_blocks(sum);
    println!(
        "{proc_name} has {} potential paths; sum {sum} is {:?}:",
        paths.num_paths(),
        kind
    );
    for b in blocks {
        let block = &program.procedure(pid).blocks[b.index()];
        println!("  b{}:", b.0);
        for i in &block.instrs {
            println!("    {i}");
        }
        println!("    {}", block.term);
    }
    Ok(())
}

/// `println!` panics when stdout is a closed pipe (`pp list | head`);
/// detect that payload so we can die quietly like any Unix filter.
fn is_broken_pipe(payload: &(dyn std::any::Any + Send)) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    msg.is_some_and(|m| m.contains("Broken pipe"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(verb) = argv.first() else {
        eprintln!("{}", usage(None));
        return ExitCode::from(1);
    };
    let run = || -> Result<(), PpError> {
        let mut args = Args::parse(verb, &argv[1..])?;
        if args.on("--quiet") {
            pp::obs::log::set_level(pp::obs::Level::Quiet);
        }
        pp::obs::trace::init_from_env();
        if pp::obs::trace::enabled() {
            // PP_TRACE=1 behaves exactly like --trace.
            args.given.insert("--trace", String::new());
        }
        if args.on("--trace") || args.on("--trace-out") {
            pp::obs::trace::enable(true);
        }
        let result = (args.handler)(&args);
        // Spans a command recorded but did not render itself (`pp
        // stats` drains its own buffer, so this is a no-op there).
        let (events, dropped) = pp::obs::trace::take_events();
        let trace_result = if events.is_empty() && dropped == 0 {
            Ok(())
        } else {
            emit_trace(&args, &events, dropped)
        };
        if dropped > 0 {
            pp::obs::warn!("trace buffer dropped {dropped} oldest spans");
        }
        result.and(trace_result)
    };
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_broken_pipe(info.payload()) {
            default_hook(info);
        }
    }));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            // Plain `eprintln!` panics on EPIPE, and this line runs
            // outside the catch_unwind above — write fallibly so a
            // closed stderr cannot turn an error report into a panic.
            use std::io::Write;
            let _ = writeln!(std::io::stderr(), "error: {e}");
            ExitCode::from(e.exit_code())
        }
        Err(payload) if is_broken_pipe(payload.as_ref()) => {
            // The conventional status of a filter killed by SIGPIPE.
            ExitCode::from(141)
        }
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(verb: &str, argv: &[&str]) -> Result<Args, PpError> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse(verb, &argv)
    }

    /// A value `rule` accepts; `None` for a switch.
    fn valid(rule: Rule) -> Option<&'static str> {
        match rule {
            Switch => None,
            Str => Some("x"),
            U64 | U32 | Count => Some("1"),
            NonNeg | Scale | Fraction => Some("0.5"),
        }
    }

    // The service verbs are dispatched on Unix only.
    #[cfg(unix)]
    #[test]
    fn flag_table_names_only_dispatched_verbs() {
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(f.name.starts_with("--"), "{}", f.name);
            assert_eq!(f.metavar.is_empty(), f.rule == Switch, "{}", f.name);
            assert!(!f.help.is_empty(), "{} has no help line", f.name);
            assert!(
                FLAGS[..i].iter().all(|g| g.name != f.name),
                "{} is declared twice",
                f.name
            );
            for verb in f.verbs.split(' ') {
                assert!(
                    verb == "*" || VERBS.iter().any(|v| v.0 == verb),
                    "{} names `{verb}`, which is not a dispatched verb",
                    f.name
                );
            }
        }
    }

    #[test]
    fn every_dispatched_verb_has_a_usage_line() {
        let all = usage(None);
        for &(verb, ..) in VERBS {
            assert!(all.contains(&format!("\n  pp {verb}:")), "{verb}: {all}");
            let own = usage(Some(verb));
            assert!(own.starts_with(&format!("usage:\n  pp {verb}:")), "{own}");
            assert_eq!(own.matches("\n  pp ").count(), 1, "{own}");
        }
        assert!(parse("definitely-not-a-verb", &[]).is_err());
    }

    #[test]
    fn each_flag_parses_on_its_verbs_and_is_refused_elsewhere() {
        for f in FLAGS {
            let argv: Vec<&str> = std::iter::once(f.name).chain(valid(f.rule)).collect();
            for &(verb, ..) in VERBS {
                match parse(verb, &argv) {
                    Ok(args) => {
                        assert!(f.read_by(verb), "`pp {verb}` took {}", f.name);
                        assert_eq!(
                            args.given.get(f.name).map(String::as_str),
                            Some(valid(f.rule).unwrap_or(""))
                        );
                    }
                    Err(e) => {
                        assert!(!f.read_by(verb), "`pp {verb}` refused {}: {e}", f.name);
                        assert!(e.to_string().contains("does not take"), "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn values_must_pass_their_rule() {
        for (verb, flag, bad) in [
            ("run", "--scale", &["0", "-1", "nan", "inf", "x"][..]),
            ("hot", "--threshold", &["nan", "-3", "1.5", "inf"]),
            ("batch", "--jobs", &["0", "-1", "4294967296"]),
            ("run", "--cct-cap", &["-1", "4294967296", "1.5"]),
            ("run", "--fuel", &["-1", "18446744073709551616"]),
            ("run", "--deadline", &["-1", "inf", "nan"]),
            ("bench", "--tolerance", &["-0.1", "nan"]),
        ] {
            for value in bad {
                let e = parse(verb, &[flag, value]).err();
                let e = e.map(|e| e.to_string()).unwrap_or_default();
                assert!(
                    e.starts_with(&format!("bad {flag} value `{value}`")),
                    "{flag} {value}: {e}"
                );
            }
        }
        let args = parse("hot", &["t", "--threshold", "1", "--scale", "1e-3"]).expect("valid");
        assert_eq!((args.threshold(), args.scale()), (1.0, 1e-3));
        assert!(parse("run", &["--scale"]).is_err_and(|e| e.to_string().contains("needs a value")));
    }
}
