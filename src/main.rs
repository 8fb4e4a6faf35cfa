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
//!
//! options:
//!   --config base|edge|flow|flow-hw|context-hw|context-flow|combined
//!   --events <ev0>,<ev1>      counter selection (default insts,dc_miss)
//!   --scale <f64>             suite workload scale (default 1.0)
//!   --threshold <f64>         hot threshold (default 0.01)
//!   --cct-cap <u32>           cap CCT records; overflow collapses
//!                             DCG-style (default unlimited)
//!   --max-uops <u64>          abort runs after this many micro-ops
//!                             (partial profile, exit code 2)
//!   --fuel <u64>              guest µop budget; a run that exhausts it
//!                             stops with a typed limit error (batch
//!                             default 1e9; elsewhere unlimited)
//!   --deadline <secs>         guest wall-clock deadline; 0 disables
//!                             (stats/bench default 120s, else none)
//!   --jobs <n>                (batch) worker threads (default: up to 4)
//!   --retries <n>             (batch/serve) transient-failure retry
//!                             budget per job; (submit/status/fetch/
//!                             watch) reconnect/retry budget (default 2)
//!   --seed <u64>              (batch/serve) backoff-jitter seed, stored
//!                             in the manifest; (client verbs/chaos)
//!                             retry-jitter / plan-rotation seed
//!                             (default 0)
//!   --checkpoint-dir <DIR>    (batch) persist the manifest + finished
//!                             profiles there after each completion;
//!                             (merge) commit a resumable fold
//!                             checkpoint every --checkpoint-every
//!                             shards
//!   --resume <DIR>            (batch) resume an interrupted campaign
//!                             from DIR's manifest; (merge) resume an
//!                             interrupted fold — the result is
//!                             byte-identical to an uninterrupted run
//!   --strict                  (merge) first corrupt/alien shard fails
//!                             the merge (exit 3) instead of
//!                             quarantining it
//!   --inject <spec>           (batch) fault injection: comma-separated
//!                             hang@I | panic@I[:N] | transient@I[:N] |
//!                             corrupt@I[:N] | truncate@W[:KEEP] | halt@W
//!   --quarantine-cap <n>      (batch/serve) keep at most n quarantined
//!                             attempt-sets, evicting oldest-first
//!                             (default 0 = keep everything)
//!   --socket <PATH>           (serve/submit/status) daemon address: a
//!                             Unix socket path, `unix:PATH`,
//!                             `tcp:HOST:PORT`, or a bare `HOST:PORT`
//!                             (default pp.sock)
//!   --listen <HOST:PORT>      (serve) also listen on TCP; `:0` picks an
//!                             ephemeral port, reported on stdout;
//!                             (chaos) the proxy's listen address
//!   --max-conns <n>           (serve) concurrent-connection cap; excess
//!                             connections get a typed `overloaded`
//!                             refusal with retry_after_ms (default 64;
//!                             0 = unlimited)
//!   --idle-timeout <secs>     (serve) close connections idle between
//!                             requests, with a typed `idle-timeout`
//!                             frame (default 300; 0 = never)
//!   --io-timeout <secs>       (serve) per-frame read / per-write
//!                             deadline — the slow-loris cutoff
//!                             (default 10; 0 = none)
//!   --timeout <secs>          (submit/status/fetch/watch) per-reply
//!                             deadline; an unresponsive daemon is a
//!                             typed transport failure, exit 4
//!                             (default 30)
//!   --upstream <ADDR>         (chaos) the real daemon the proxy
//!                             forwards to (`tcp:HOST:PORT`)
//!   --plan <SPEC>             (chaos) comma-separated fault plan:
//!                             ok | delay:MS | throttle:BYTES | tear:K |
//!                             reset:M | blackhole (default ok)
//!   --queue-cap <n>           (serve) bounded admission queue; a full
//!                             queue rejects with `overloaded`, exit 4
//!   --quota <n>               (serve) max in-flight jobs per client
//!                             (default 0 = unlimited)
//!   --checkpoint-every <n>    (serve) terminal jobs between checkpoint
//!                             manifest writes (default 8)
//!   --inject-every <spec>     (serve) soak-test faults: comma-separated
//!                             panic=N | transient=N | corrupt=N, hitting
//!                             every N-th job's first attempt
//!   --client <NAME>           (submit) client name for quota accounting;
//!                             (watch) only that client's events
//!   --wait                    (submit) block until the job is terminal
//!   --wait-idle               (status) block until the daemon is idle
//!   --metrics                 (status) print every counter, gauge, and
//!                             histogram of the daemon's registry
//!   --prom                    (status) Prometheus text exposition of
//!                             the same registry (implies --metrics)
//!   --job <id>                (watch) only that job's events
//!   --since <seq>             (watch) replay retained events from that
//!                             bus sequence number first (0 = all)
//!   --json                    (watch) raw NDJSON frames, one per line
//!                             (for watch, --events takes a comma list
//!                             of kinds: admitted,queued,started,
//!                             retrying,quarantined,done,state,metrics)
//!   --against <target>        (verify) the program a flow profile was
//!                             collected from, enabling the
//!                             flow-conservation walk
//!   --clobber-pics <read>     (verify) seed a counter clobber at that
//!                             read index — the unreconcilable-wrap
//!                             fault the wrap checks must catch
//!   --smoke                   (bench) tiny scale, no BENCH file unless
//!                             --out is given — the CI execution check
//!   --repeat <n>              (bench) time each case n times, report the
//!                             best (default 3; noise rejection)
//!   --check <FILE>            (bench) regression guard: compare totals
//!                             against a recorded BENCH_*.json and exit
//!                             nonzero on a slowdown beyond --tolerance;
//!                             never writes the trajectory
//!   --tolerance <f>           (bench) allowed relative regression for
//!                             --check (default 0.02 = 2%)
//!   --emit-meta <FILE>        (bench) write the suite-wide dynamic
//!                             micro-op mix (the self-hosted PGO input;
//!                             checked in at crates/usim/meta/uop_meta.json)
//!   --trace                   record pipeline spans; print a collapsed
//!                             flamegraph stack to stderr at exit
//!                             (PP_TRACE=1 does the same)
//!   --trace-out <FILE>        write recorded spans as Chrome trace_event
//!                             JSON (chrome://tracing, Perfetto)
//!   --quiet                   suppress all stderr diagnostics
//!                             (PP_LOG=warn|info|debug sets the level)
//!
//! exit codes: 0 success; 1 usage or instrumentation error; 2 run
//! aborted (partial profile) or integrity violation; 3 I/O error or
//! corrupt profile; 4 service unavailable (overloaded, quota
//! exhausted, draining, or an unreachable/unresponsive daemon on
//! either transport — back off and resubmit).
//! ```

mod batch_cmd;
mod bench_cmd;
mod chaos_cmd;
mod merge_cmd;
#[cfg(unix)]
mod serve_cmd;
mod signals;
mod verify_cmd;

use std::process::ExitCode;
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

struct Options {
    config: String,
    /// Was `--config` given explicitly? (`pp stats` defaults to the
    /// combined pipeline, unlike the other commands.)
    config_set: bool,
    events: (HwEvent, HwEvent),
    /// The raw `--events` value. Most commands parse it as an
    /// `ev0,ev1` counter pair into `events`; `pp watch` reads it as a
    /// comma-separated event-kind filter instead.
    events_spec: Option<String>,
    scale: f64,
    threshold: f64,
    out: Option<String>,
    cct_cap: u32,
    max_uops: Option<u64>,
    fuel: Option<u64>,
    deadline: Option<f64>,
    jobs: usize,
    retries: u32,
    seed: u64,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    inject: Option<String>,
    against: Option<String>,
    clobber_pics: Option<u64>,
    smoke: bool,
    repeat: usize,
    check: Option<String>,
    tolerance: f64,
    emit_meta: Option<String>,
    trace: bool,
    trace_out: Option<String>,
    quiet: bool,
    socket: String,
    listen: Option<String>,
    max_conns: usize,
    idle_timeout: f64,
    io_timeout: f64,
    timeout: Option<f64>,
    upstream: Option<String>,
    plan: String,
    client: String,
    /// Was `--client` given explicitly? (`pp watch` only filters by
    /// client when it was.)
    client_set: bool,
    wait: bool,
    wait_idle: bool,
    metrics: bool,
    prom: bool,
    job: Option<u64>,
    since: Option<u64>,
    json: bool,
    queue_cap: usize,
    quota: usize,
    checkpoint_every: u32,
    quarantine_cap: usize,
    inject_every: Option<String>,
    strict: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            config: "flow-hw".to_string(),
            config_set: false,
            events: (HwEvent::Insts, HwEvent::DcMiss),
            events_spec: None,
            scale: 1.0,
            threshold: 0.01,
            out: None,
            cct_cap: 0,
            max_uops: None,
            fuel: None,
            deadline: None,
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(4),
            retries: 2,
            seed: 0,
            checkpoint_dir: None,
            resume: None,
            inject: None,
            against: None,
            clobber_pics: None,
            smoke: false,
            repeat: 3,
            check: None,
            tolerance: 0.02,
            emit_meta: None,
            trace: false,
            trace_out: None,
            quiet: false,
            socket: "pp.sock".to_string(),
            listen: None,
            max_conns: 64,
            idle_timeout: 300.0,
            io_timeout: 10.0,
            timeout: None,
            upstream: None,
            plan: "ok".to_string(),
            client: "cli".to_string(),
            client_set: false,
            wait: false,
            wait_idle: false,
            metrics: false,
            prom: false,
            job: None,
            since: None,
            json: false,
            queue_cap: 64,
            quota: 0,
            checkpoint_every: 8,
            quarantine_cap: 0,
            inject_every: None,
            strict: false,
        }
    }
}

impl Options {
    fn profiler(&self) -> Profiler {
        let mut mc = MachineConfig::default();
        if let Some(uops) = self.max_uops {
            mc.max_instructions = uops;
        }
        Profiler::new(mc)
            .with_cct_record_cap(self.cct_cap)
            .with_limits(self.guest_limits(0.0))
    }

    /// The guest resource limits the flags ask for. Commands that want a
    /// conservative safety net (`pp stats`, `pp bench`) pass a non-zero
    /// `default_deadline_s`, applied only when `--deadline` was absent;
    /// an explicit `--deadline 0` always means "no deadline".
    fn guest_limits(&self, default_deadline_s: f64) -> GuestLimits {
        let mut limits = GuestLimits::none();
        if let Some(fuel) = self.fuel {
            limits = limits.with_fuel(fuel);
        }
        let deadline = self.deadline.unwrap_or(default_deadline_s);
        if deadline > 0.0 {
            limits = limits.with_deadline(Duration::from_secs_f64(deadline));
        }
        limits
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

/// Parses a non-negative seconds value (`--timeout`, `--idle-timeout`,
/// `--io-timeout`; 0 always means "disabled").
fn parse_seconds(flag: &str, text: String) -> Result<f64, PpError> {
    let s: f64 = text
        .parse()
        .map_err(|_| usage_err(format!("bad {flag} value (expect seconds)")))?;
    if s < 0.0 || !s.is_finite() {
        return Err(usage_err(format!("{flag} must be a non-negative number")));
    }
    Ok(s)
}

fn parse_options(args: &[String]) -> Result<(Vec<String>, Options), PpError> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| usage_err(format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => {
                opts.config = value("--config", &mut it)?;
                opts.config_set = true;
            }
            "--events" => {
                // Stored raw: `pp watch` reads a kind filter here, every
                // other command a counter pair (parsed in main()).
                opts.events_spec = Some(value("--events", &mut it)?);
            }
            "--scale" => {
                opts.scale = value("--scale", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --scale value"))?;
            }
            "--threshold" => {
                opts.threshold = value("--threshold", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --threshold value"))?;
            }
            "--out" => opts.out = Some(value("--out", &mut it)?),
            "--cct-cap" => {
                opts.cct_cap = value("--cct-cap", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --cct-cap value (expect a u32)"))?;
            }
            "--max-uops" => {
                opts.max_uops = Some(
                    value("--max-uops", &mut it)?
                        .parse()
                        .map_err(|_| usage_err("bad --max-uops value (expect a u64)"))?,
                );
            }
            "--fuel" => {
                opts.fuel = Some(
                    value("--fuel", &mut it)?
                        .parse()
                        .map_err(|_| usage_err("bad --fuel value (expect a u64)"))?,
                );
            }
            "--deadline" => {
                let d: f64 = value("--deadline", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --deadline value (expect seconds)"))?;
                if d < 0.0 || !d.is_finite() {
                    return Err(usage_err("--deadline must be a non-negative number"));
                }
                opts.deadline = Some(d);
            }
            "--jobs" => {
                opts.jobs = value("--jobs", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --jobs value (expect a positive integer)"))?;
                if opts.jobs == 0 {
                    return Err(usage_err("--jobs must be at least 1"));
                }
            }
            "--retries" => {
                opts.retries = value("--retries", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --retries value (expect a u32)"))?;
            }
            "--seed" => {
                opts.seed = value("--seed", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --seed value (expect a u64)"))?;
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(value("--checkpoint-dir", &mut it)?);
            }
            "--resume" => opts.resume = Some(value("--resume", &mut it)?),
            "--inject" => opts.inject = Some(value("--inject", &mut it)?),
            "--against" => opts.against = Some(value("--against", &mut it)?),
            "--clobber-pics" => {
                opts.clobber_pics =
                    Some(value("--clobber-pics", &mut it)?.parse().map_err(|_| {
                        usage_err("bad --clobber-pics value (expect a read index)")
                    })?);
            }
            "--socket" => opts.socket = value("--socket", &mut it)?,
            "--listen" => opts.listen = Some(value("--listen", &mut it)?),
            "--max-conns" => {
                opts.max_conns = value("--max-conns", &mut it)?.parse().map_err(|_| {
                    usage_err("bad --max-conns value (expect an integer; 0 = unlimited)")
                })?;
            }
            "--idle-timeout" => {
                opts.idle_timeout =
                    parse_seconds("--idle-timeout", value("--idle-timeout", &mut it)?)?;
            }
            "--io-timeout" => {
                opts.io_timeout = parse_seconds("--io-timeout", value("--io-timeout", &mut it)?)?;
            }
            "--timeout" => {
                opts.timeout = Some(parse_seconds("--timeout", value("--timeout", &mut it)?)?);
            }
            "--upstream" => opts.upstream = Some(value("--upstream", &mut it)?),
            "--plan" => opts.plan = value("--plan", &mut it)?,
            "--client" => {
                opts.client = value("--client", &mut it)?;
                opts.client_set = true;
            }
            "--wait" => opts.wait = true,
            "--wait-idle" => opts.wait_idle = true,
            "--metrics" => opts.metrics = true,
            "--prom" => opts.prom = true,
            "--json" => opts.json = true,
            "--job" => {
                opts.job = Some(
                    value("--job", &mut it)?
                        .parse()
                        .map_err(|_| usage_err("bad --job value (expect a job id)"))?,
                );
            }
            "--since" => {
                opts.since = Some(
                    value("--since", &mut it)?
                        .parse()
                        .map_err(|_| usage_err("bad --since value (expect a sequence number)"))?,
                );
            }
            "--queue-cap" => {
                opts.queue_cap = value("--queue-cap", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --queue-cap value (expect a positive integer)"))?;
                if opts.queue_cap == 0 {
                    return Err(usage_err("--queue-cap must be at least 1"));
                }
            }
            "--quota" => {
                opts.quota = value("--quota", &mut it)?.parse().map_err(|_| {
                    usage_err("bad --quota value (expect an integer; 0 = unlimited)")
                })?;
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = value("--checkpoint-every", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --checkpoint-every value (expect a u32)"))?;
                if opts.checkpoint_every == 0 {
                    return Err(usage_err("--checkpoint-every must be at least 1"));
                }
            }
            "--quarantine-cap" => {
                opts.quarantine_cap =
                    value("--quarantine-cap", &mut it)?.parse().map_err(|_| {
                        usage_err("bad --quarantine-cap value (expect an integer; 0 = unbounded)")
                    })?;
            }
            "--inject-every" => {
                opts.inject_every = Some(value("--inject-every", &mut it)?);
            }
            "--strict" => opts.strict = true,
            "--smoke" => opts.smoke = true,
            "--trace" => opts.trace = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out", &mut it)?),
            "--quiet" => opts.quiet = true,
            "--repeat" => {
                opts.repeat = value("--repeat", &mut it)?
                    .parse()
                    .map_err(|_| usage_err("bad --repeat value (expect a positive integer)"))?;
                if opts.repeat == 0 {
                    return Err(usage_err("--repeat must be at least 1"));
                }
            }
            "--check" => opts.check = Some(value("--check", &mut it)?),
            "--tolerance" => {
                opts.tolerance = value("--tolerance", &mut it)?.parse().map_err(|_| {
                    usage_err("bad --tolerance value (expect a fraction, e.g. 0.02)")
                })?;
                if opts.tolerance.is_nan() || opts.tolerance < 0.0 {
                    return Err(usage_err("--tolerance must be non-negative"));
                }
            }
            "--emit-meta" => opts.emit_meta = Some(value("--emit-meta", &mut it)?),
            other if other.starts_with("--") => {
                return Err(usage_err(format!("unknown option {other}")))
            }
            other => positional.push(other.to_string()),
        }
    }
    Ok((positional, opts))
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

fn run_config(opts: &Options) -> Result<RunConfig, PpError> {
    config_by_name(&opts.config, opts.events)
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

fn cmd_list() {
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
}

fn cmd_run(target: &str, opts: &Options) -> Result<(), PpError> {
    let (name, program) = load_target(target, opts.scale)?;
    let profiler = opts.profiler();
    let mut fault = None;
    let base = profiled(&profiler, &program, RunConfig::Base, &mut fault)?;
    let config = run_config(opts)?;
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

fn cmd_hot(target: &str, opts: &Options) -> Result<(), PpError> {
    let (name, program) = load_target(target, opts.scale)?;
    let profiler = opts.profiler();
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
    let paths = analysis::hot_paths(flow, opts.threshold);
    println!(
        "== {name}: {} hot paths (>= {:.2}% of {} misses) cover {:.1}% ==",
        paths.hot.len(),
        100.0 * opts.threshold,
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
    let procs = analysis::hot_procedures(flow, &program, opts.threshold);
    let hot: Vec<&analysis::ProcStat> = procs.hot.iter().collect();
    println!(
        "\n{} hot procedures cover {:.1}% of misses (avg {:.1} paths each)",
        hot.len(),
        100.0 * procs.miss_fraction(&hot),
        analysis::HotProcReport::avg_paths(&hot)
    );
    finish(fault)
}

fn cmd_report(target: &str, opts: &Options) -> Result<(), PpError> {
    let (name, program) = load_target(target, opts.scale)?;
    let profiler = opts.profiler();
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
    let paths = analysis::hot_paths(flow, opts.threshold);
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
    let procs = analysis::hot_procedures(flow, &program, opts.threshold);
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

fn cmd_cct(target: &str, opts: &Options) -> Result<(), PpError> {
    let (name, program) = load_target(target, opts.scale)?;
    let profiler = opts.profiler();
    let mut fault = None;
    let run = profiled(
        &profiler,
        &program,
        RunConfig::CombinedHw {
            events: opts.events,
        },
        &mut fault,
    )?;
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
    if let Some(path) = &opts.out {
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
fn cmd_stats(arg: &str, opts: &Options) -> Result<(), PpError> {
    match sniff_stats_input(arg) {
        StatsInput::CctProfile => cmd_stats_file(arg),
        StatsInput::Opaque(reason) => Err(PpError::Integrity(IntegrityError::Artifact(
            SerializeError::Format(format!("{arg}: {reason}")),
        ))),
        StatsInput::Target => cmd_stats_overhead(arg, opts),
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
fn cmd_stats_overhead(target: &str, opts: &Options) -> Result<(), PpError> {
    // The per-phase table needs spans whether or not --trace was given.
    pp::obs::trace::enable(true);
    let _ = pp::obs::trace::take_events(); // start from a clean buffer

    let (name, program) = {
        let _span = pp::obs::span!("load");
        load_target(target, opts.scale)?
    };
    {
        let _span = pp::obs::span!("verify");
        pp::ir::verify::verify_program(&program).map_err(|e| usage_err(format!("{name}: {e}")))?;
    }
    let (setup_events, _) = pp::obs::trace::take_events();

    // A conservative safety-net deadline: accounting runs are long, and
    // without a bound a wedged guest would hang the command forever.
    let profiler = opts
        .profiler()
        .with_limits(opts.guest_limits(ACCOUNTING_DEADLINE_S));
    // Unlike the other commands, stats defaults to the combined pipeline
    // so the report covers the CCT and path tables too.
    let config = if opts.config_set {
        run_config(opts)?
    } else {
        RunConfig::CombinedHw {
            events: opts.events,
        }
    };
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
        let _ = analysis::hot_paths(flow, opts.threshold);
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
        run.config, opts.scale
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
    for ev in [opts.events.0, opts.events.1] {
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

    if let Some(path) = &opts.out {
        let json = stats_json(
            &name,
            &run,
            &base,
            opts,
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
    emit_trace(opts, &all_events, dropped)?;
    finish(fault)
}

/// Renders the machine-readable form of the overhead report (`pp stats
/// --out`); the schema round-trips through `pp::obs::json`. The tuple
/// holds the base and instrumented wall seconds and the observation
/// overhead.
fn stats_json(
    name: &str,
    run: &RunOutcome,
    base: &RunOutcome,
    opts: &Options,
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
    for ev in [opts.events.0, opts.events.1] {
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
        ("scale".to_string(), Json::Num(opts.scale)),
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
fn emit_trace(opts: &Options, events: &[pp::obs::SpanEvent], dropped: u64) -> Result<(), PpError> {
    if let Some(path) = &opts.trace_out {
        let json = pp::obs::trace::chrome_trace(events, dropped);
        std::fs::write(path, json).map_err(|e| PpError::io(path, e))?;
        pp::obs::info!("wrote {} trace events to {path}", events.len());
    }
    if opts.trace {
        eprint!("{}", pp::obs::trace::collapsed_stacks(events, dropped));
    }
    Ok(())
}

fn cmd_annotate(target: &str, proc_name: &str, opts: &Options) -> Result<(), PpError> {
    let (_, program) = load_target(target, opts.scale)?;
    let pid = find_proc(&program, proc_name)?;
    let profiler = opts.profiler();
    let mut fault = None;
    let run = profiled(
        &profiler,
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

fn cmd_decode(
    target: &str,
    proc_name: &str,
    sum_text: &str,
    opts: &Options,
) -> Result<(), PpError> {
    let (_, program) = load_target(target, opts.scale)?;
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

fn usage() -> &'static str {
    "usage: pp <list|run|report|hot|cct|stats|merge|verify|annotate|decode|bench|batch|serve|submit|status|watch|fetch|chaos> [target] [options]\n\
     run `pp list` to see the benchmark suite; see crate docs for options\n\
     batch: --jobs N --retries N --fuel N --deadline S --seed N --quarantine-cap N\n\
            --checkpoint-dir DIR | --resume DIR  --inject hang@I,corrupt@I,...\n\
     merge: <shards|dirs...> --out FILE [--strict] [--checkpoint-every N]\n\
            [--checkpoint-dir DIR | --resume DIR] [--inject halt@N] [--metrics]\n\
     serve: --socket PATH [--listen HOST:PORT] --checkpoint-dir DIR --jobs N\n\
            --queue-cap N --quota N --max-conns N --idle-timeout S --io-timeout S\n\
            --checkpoint-every N --quarantine-cap N --inject-every panic=N,corrupt=N\n\
     submit: <target> --socket ADDR [--client NAME] [--wait] [--timeout S]\n\
             [--retries N] [--seed N]   (ADDR: path | unix:PATH | tcp:HOST:PORT)\n\
     status: [job-id] --socket ADDR [--wait-idle] [--metrics] [--prom] [--timeout S]\n\
     watch: --socket ADDR [--job ID] [--client NAME] [--events k1,k2] [--since SEQ]\n\
            [--json] [--deadline S]\n\
     chaos: --listen HOST:PORT --upstream ADDR [--seed N]\n\
            [--plan ok,delay:MS,throttle:N,tear:K,reset:M,blackhole]\n\
     verify: <profile|checkpoint-dir|target> [--against TARGET] [--clobber-pics READ]\n\
     observability: --trace, --trace-out FILE, --quiet (also PP_TRACE, PP_LOG)\n\
     exit codes: 0 ok, 1 usage, 2 aborted run or integrity violation,\n\
                 3 i/o or corrupt profile, 4 service unavailable\n\
                 (overloaded/quota/draining/unreachable)"
}

/// The client-verb options shared by `pp submit`, `pp status`, and
/// `pp watch`.
#[cfg(unix)]
fn client_args(opts: &Options) -> serve_cmd::ClientArgs {
    serve_cmd::ClientArgs {
        socket: opts.socket.clone(),
        client: opts.client.clone(),
        dir: opts
            .checkpoint_dir
            .clone()
            .unwrap_or_else(|| "pp-serve-state".to_string()),
        wait: opts.wait,
        wait_idle: opts.wait_idle,
        deadline_s: opts.deadline,
        timeout_s: opts.timeout,
        retries: opts.retries,
        seed: opts.seed,
    }
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::from(1);
    };
    let run = || -> Result<(), PpError> {
        let (positional, mut opts) = parse_options(&args[1..])?;
        // `pp watch` reads `--events` as an event-kind filter; everyone
        // else as the hardware-counter pair.
        if cmd != "watch" {
            if let Some(spec) = &opts.events_spec {
                let (a, b) = spec
                    .split_once(',')
                    .ok_or_else(|| usage_err("--events expects `ev0,ev1`"))?;
                opts.events = (parse_event(a.trim())?, parse_event(b.trim())?);
            }
        }
        if opts.quiet {
            pp::obs::log::set_level(pp::obs::Level::Quiet);
        }
        pp::obs::trace::init_from_env();
        if pp::obs::trace::enabled() {
            opts.trace = true; // PP_TRACE=1 behaves exactly like --trace
        }
        if opts.trace || opts.trace_out.is_some() {
            pp::obs::trace::enable(true);
        }
        let result = match (cmd.as_str(), positional.as_slice()) {
            ("list", _) => {
                cmd_list();
                Ok(())
            }
            ("run", [t]) => cmd_run(t, &opts),
            ("report", [t]) => cmd_report(t, &opts),
            ("hot", [t]) => cmd_hot(t, &opts),
            ("cct", [t]) => cmd_cct(t, &opts),
            ("stats", [f]) => cmd_stats(f, &opts),
            ("verify", [t]) => {
                // Like stats/batch, verify defaults to the combined
                // pipeline so every artifact class gets exercised.
                let config = if opts.config_set {
                    run_config(&opts)?
                } else {
                    RunConfig::CombinedHw {
                        events: opts.events,
                    }
                };
                verify_cmd::run_verify(&verify_cmd::VerifyArgs {
                    target: t.clone(),
                    against: opts.against.clone(),
                    clobber_pics: opts.clobber_pics,
                    config,
                    scale: opts.scale,
                    cct_cap: opts.cct_cap,
                    profiler: opts.profiler(),
                })
            }
            ("merge", inputs) => merge_cmd::run_merge_cmd(&merge_cmd::MergeArgs {
                inputs: inputs.to_vec(),
                out: opts.out.clone(),
                strict: opts.strict,
                checkpoint_dir: opts.resume.clone().or_else(|| opts.checkpoint_dir.clone()),
                resume: opts.resume.is_some(),
                checkpoint_every: opts.checkpoint_every,
                inject: opts.inject.clone(),
                metrics: opts.metrics,
            }),
            ("annotate", [t, p]) => cmd_annotate(t, p, &opts),
            ("decode", [t, p, s]) => cmd_decode(t, p, s, &opts),
            ("bench", []) => bench_cmd::run_bench(&bench_cmd::BenchArgs {
                scale: opts.scale,
                smoke: opts.smoke,
                out: opts.out.clone(),
                events: opts.events,
                repeat: opts.repeat,
                limits: opts.guest_limits(ACCOUNTING_DEADLINE_S),
                check: opts.check.clone(),
                tolerance: opts.tolerance,
                emit_meta: opts.emit_meta.clone(),
            }),
            ("batch", targets) => {
                // Batch defaults to the combined pipeline so checkpoints
                // carry both the flow and the CCT profile.
                let (config, config_name) = if opts.config_set {
                    (run_config(&opts)?, opts.config.clone())
                } else {
                    (
                        RunConfig::CombinedHw {
                            events: opts.events,
                        },
                        "combined".to_string(),
                    )
                };
                batch_cmd::run_batch(&batch_cmd::BatchArgs {
                    targets: targets.to_vec(),
                    config,
                    config_name,
                    scale: opts.scale,
                    workers: opts.jobs,
                    retries: opts.retries,
                    seed: opts.seed,
                    fuel: opts.fuel.unwrap_or(batch_cmd::DEFAULT_FUEL),
                    deadline_s: opts.deadline,
                    checkpoint_dir: opts.resume.clone().or_else(|| opts.checkpoint_dir.clone()),
                    resume: opts.resume.is_some(),
                    inject: opts.inject.clone(),
                    quarantine_cap: opts.quarantine_cap,
                    profiler: opts.profiler(),
                })
            }
            #[cfg(unix)]
            ("serve", []) => serve_cmd::run_serve(&serve_cmd::ServeArgs {
                socket: opts.socket.clone(),
                listen: opts.listen.clone(),
                dir: opts
                    .checkpoint_dir
                    .clone()
                    .unwrap_or_else(|| "pp-serve-state".to_string()),
                workers: opts.jobs,
                queue_cap: opts.queue_cap,
                quota: opts.quota,
                max_conns: opts.max_conns,
                idle_timeout_s: opts.idle_timeout,
                io_timeout_s: opts.io_timeout,
                retries: opts.retries,
                seed: opts.seed,
                checkpoint_every: opts.checkpoint_every,
                quarantine_cap: opts.quarantine_cap,
                inject_every: opts.inject_every.clone(),
                fuel: opts.fuel.unwrap_or(batch_cmd::DEFAULT_FUEL),
                deadline_s: opts.deadline,
                profiler: opts.profiler(),
            }),
            #[cfg(unix)]
            ("submit", [t]) => {
                // Like batch, service jobs default to the combined
                // pipeline so artifacts carry flow and CCT profiles.
                let config_name = if opts.config_set {
                    opts.config.clone()
                } else {
                    "combined".to_string()
                };
                serve_cmd::run_submit(
                    &client_args(&opts),
                    t,
                    opts.scale,
                    &config_name,
                    opts.events,
                )
            }
            #[cfg(unix)]
            ("status", []) => {
                serve_cmd::run_status(&client_args(&opts), None, opts.metrics, opts.prom)
            }
            #[cfg(unix)]
            ("status", [id]) => {
                let id = id
                    .parse()
                    .map_err(|_| usage_err(format!("bad job id `{id}`")))?;
                serve_cmd::run_status(&client_args(&opts), Some(id), opts.metrics, opts.prom)
            }
            #[cfg(unix)]
            ("fetch", []) => serve_cmd::run_fetch(&client_args(&opts), None, opts.out.as_deref()),
            #[cfg(unix)]
            ("fetch", [name]) => {
                serve_cmd::run_fetch(&client_args(&opts), Some(name), opts.out.as_deref())
            }
            ("chaos", []) => {
                let listen = opts
                    .listen
                    .clone()
                    .ok_or_else(|| usage_err("pp chaos needs --listen HOST:PORT"))?;
                let upstream = opts
                    .upstream
                    .clone()
                    .ok_or_else(|| usage_err("pp chaos needs --upstream ADDR"))?;
                chaos_cmd::run_chaos(&listen, &upstream, &opts.plan, opts.seed)
            }
            #[cfg(unix)]
            ("watch", []) => serve_cmd::run_watch(
                &client_args(&opts),
                &serve_cmd::WatchArgs {
                    job: opts.job,
                    client_filter: opts.client_set.then(|| opts.client.clone()),
                    kinds: opts.events_spec.clone(),
                    since: opts.since,
                    json: opts.json,
                },
            ),
            _ => Err(PpError::Usage(usage().to_string())),
        };
        // Spans a command recorded but did not render itself (`pp
        // stats` drains its own buffer, so this is a no-op there).
        let (events, dropped) = pp::obs::trace::take_events();
        let trace_result = if events.is_empty() && dropped == 0 {
            Ok(())
        } else {
            emit_trace(&opts, &events, dropped)
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
