//! The `pp serve` / `pp submit` / `pp status` subcommands: the CLI face
//! of the profile service ([`pp::profiler::Service`]).
//!
//! `pp serve` binds a Unix-domain socket (and, with `--listen`, a TCP
//! endpoint) and speaks the newline-delimited JSON protocol of
//! [`pp::profiler::server`] over both — one request object per line,
//! one response object per line, canonical `pp::obs::json` rendering.
//! Jobs are named by spec strings — `target=<suite|file> scale=<f>
//! config=<name> events=<a>,<b>` — resolved server-side, so a thin
//! client never loads a program. The daemon owns the service lifecycle:
//! SIGINT/SIGTERM enters the drain phase (intake refused with a typed
//! `draining` rejection, in-flight jobs finish, a final checkpoint is
//! written); a second signal hard-cancels the running guests. A
//! `kill -9` instead leaves the intake journal and last checkpoint
//! behind, and the next `pp serve` over the same directory recovers
//! from them.
//!
//! Connection governance (cap, idle timeout, slow-frame deadline,
//! shed-on-drain) lives in [`pp::profiler::server`]; the `--max-conns`,
//! `--idle-timeout`, and `--io-timeout` flags configure it here.
//!
//! Every client verb (`submit`, `status`, `watch`, `fetch`) speaks
//! through the one shared [`pp::profiler::Client`]: deterministic
//! jittered reconnect/retry on connect-refused and mid-stream reset,
//! `retry_after_ms` pacing on `overloaded`/`draining` refusals, and
//! strict no-resend for the non-idempotent `submit` once its bytes have
//! left the socket. An unreachable or unresponsive daemon maps to
//! [`PpError::Unavailable`] — exit code 4 on both transports — distinct
//! from a failed run; `--timeout` bounds every reply wait.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use pp::ir::HwEvent;
use pp::obs::json::Json;
use pp::profiler::server;
use pp::profiler::transport::refusal_error;
use pp::profiler::{
    BindAddr, Client, ClientConfig, Listener, PpError, ProfileRef, RetryPolicy, ServerConfig,
    Service, ServiceConfig, ServiceFaultPlan,
};
use pp::usim::{CancelToken, GuestLimits};

use crate::batch_cmd::DEFAULT_FUEL;
use crate::{Args, Rule};

/// The daemon address when `--socket` is absent.
const DEFAULT_SOCKET: &str = "pp.sock";

/// The service state directory when `--checkpoint-dir` is absent.
const DEFAULT_STATE_DIR: &str = "pp-serve-state";

fn socket(args: &Args) -> &str {
    args.str("--socket").unwrap_or(DEFAULT_SOCKET)
}

/// How long `--wait`, `--wait-idle` and `pp watch` block (`--deadline`;
/// default 600 s).
fn wait_budget(args: &Args) -> Duration {
    Duration::from_secs_f64(args.get("--deadline").filter(|d| *d > 0.0).unwrap_or(600.0))
}

/// The per-reply deadline (`--timeout`; default 30 s).
fn op_timeout(args: &Args) -> Duration {
    Duration::from_secs_f64(args.get("--timeout").filter(|t| *t > 0.0).unwrap_or(30.0))
}

/// The one shared client every client verb speaks through.
fn open_client(args: &Args) -> Client {
    Client::new(
        BindAddr::parse(socket(args)),
        ClientConfig {
            op_timeout: op_timeout(args),
            tick: Duration::from_millis(250),
            retry: RetryPolicy {
                attempts: args.get("--retries").unwrap_or(2),
                seed: args.get("--seed").unwrap_or(0),
                ..RetryPolicy::default()
            },
        },
    )
}

/// Parses `--inject-every panic=N,transient=N,corrupt=N` (any subset).
fn parse_inject_every(spec: Option<&str>) -> Result<ServiceFaultPlan, PpError> {
    let mut plan = ServiceFaultPlan::default();
    let Some(spec) = spec else {
        return Ok(plan);
    };
    for token in spec.split(',').filter(|t| !t.is_empty()) {
        let (kind, every) = token.split_once('=').ok_or_else(|| {
            PpError::Usage(format!("--inject-every token `{token}` needs `kind=N`"))
        })?;
        let every: u64 = every.parse().map_err(|_| {
            PpError::Usage(format!("--inject-every `{token}`: bad period `{every}`"))
        })?;
        match kind {
            "panic" => plan.panic_every = every,
            "transient" => plan.transient_every = every,
            "corrupt" => plan.corrupt_every = every,
            other => {
                return Err(PpError::Usage(format!(
                    "--inject-every: unknown kind `{other}` (panic|transient|corrupt)"
                )));
            }
        }
    }
    Ok(plan)
}

/// Builds the job spec string a client sends for `target` under the
/// shared CLI options; [`spec_resolver`] is its server-side inverse.
pub fn spec_string(target: &str, scale: f64, config: &str, events: (HwEvent, HwEvent)) -> String {
    format!(
        "target={target} scale={scale} config={config} events={},{}",
        events.0.mnemonic(),
        events.1.mnemonic()
    )
}

/// The server-side [`pp::profiler::SpecResolver`]: parses a spec string
/// back into a loaded program and run configuration. Every error is a
/// string — the service turns them into typed `bad-spec` rejections.
pub fn spec_resolver() -> pp::profiler::SpecResolver {
    Arc::new(|spec: &str| {
        let mut target = None;
        let mut scale = 1.0f64;
        let mut config = "combined".to_string();
        let mut events = crate::DEFAULT_EVENTS;
        for token in spec.split_whitespace() {
            let (k, v) = token
                .split_once('=')
                .ok_or_else(|| format!("spec token `{token}` needs key=value"))?;
            match k {
                "target" => target = Some(v.to_string()),
                "scale" => {
                    Rule::Scale.check("scale", v).map_err(|e| e.to_string())?;
                    scale = v.parse().expect("checked by Rule::Scale");
                }
                "config" => config = v.to_string(),
                "events" => events = crate::parse_events(v).map_err(|e| e.to_string())?,
                other => return Err(format!("unknown spec key `{other}`")),
            }
        }
        let target = target.ok_or("spec lacks target=")?;
        let (_, program) = crate::load_target(&target, scale).map_err(|e| e.to_string())?;
        let run_config = crate::config_by_name(&config, events).map_err(|e| e.to_string())?;
        Ok((program, run_config))
    })
}

/// Runs the daemon until SIGINT/SIGTERM, then drains, checkpoints, and
/// reports. See the module docs for the lifecycle.
///
/// # Errors
///
/// [`PpError::Io`] for socket or checkpoint failures;
/// [`PpError::Usage`]/[`PpError::Corrupt`] when recovery refuses the
/// state directory (foreign campaign, torn journal, lying manifest).
pub fn run_serve(args: &Args) -> Result<(), PpError> {
    args.operands::<0>()?;
    let inject_every = args.str("--inject-every");
    let fault_plan = parse_inject_every(inject_every)?;
    let fuel = args.get("--fuel").unwrap_or(DEFAULT_FUEL);
    let deadline_s: Option<f64> = args.get("--deadline");
    // Everything that changes what a job computes goes into the params
    // tag; recovery refuses a state directory written under different
    // parameters. (config/scale/events live in each job's spec.)
    let params = format!(
        "service fuel={fuel} deadline={} inject={}",
        deadline_s.unwrap_or(0.0),
        inject_every.unwrap_or("-"),
    );
    let mut limits = GuestLimits::none().with_fuel(fuel);
    if let Some(d) = deadline_s.filter(|d| *d > 0.0) {
        limits = limits.with_deadline(Duration::from_secs_f64(d));
    }
    let socket = socket(args);
    let dir = args.str("--checkpoint-dir").unwrap_or(DEFAULT_STATE_DIR);
    let workers = args.workers();
    let queue_cap = args.get("--queue-cap").unwrap_or(64);
    let quota = args.get("--quota").unwrap_or(0);
    let max_conns = args.get("--max-conns").unwrap_or(64);
    let seed = args.get("--seed").unwrap_or(0);
    let config = ServiceConfig {
        workers,
        queue_capacity: queue_cap,
        per_client_quota: quota,
        max_retries: args.get("--retries").unwrap_or(2),
        seed,
        params,
        checkpoint_every: args.get("--checkpoint-every").unwrap_or(8),
        quarantine_cap: args.get("--quarantine-cap").unwrap_or(0),
        fault_plan,
        ..ServiceConfig::default()
    };
    let profiler = args.profiler().with_limits(limits);
    let service = Arc::new(Service::start(config, profiler, spec_resolver(), dir)?);

    // First signal: stop accepting, drain, checkpoint. Second: also
    // cancel the running guests.
    let graceful = CancelToken::new();
    crate::signals::install(graceful.clone(), service.hard_cancel_token());

    // One Listener per transport behind the same accept loop (the bind
    // removes a stale socket file a killed daemon left behind).
    let unix_addr = BindAddr::parse(socket);
    let mut listeners = vec![Listener::bind(&unix_addr).map_err(|e| PpError::io(socket, e))?];
    if let Some(listen) = args.str("--listen") {
        let tcp_addr = BindAddr::parse(listen);
        listeners.push(Listener::bind(&tcp_addr).map_err(|e| PpError::io(listen, e))?);
    }
    let (queued, running, done, failed) = service.counts();
    println!(
        "== pp serve: {} on {} workers (queue {}, quota {}, max-conns {}, seed {}) ==",
        socket,
        workers,
        queue_cap,
        if quota == 0 {
            "unlimited".to_string()
        } else {
            quota.to_string()
        },
        if max_conns == 0 {
            "unlimited".to_string()
        } else {
            max_conns.to_string()
        },
        seed,
    );
    // The actual bound addresses, so scripts and tests can discover an
    // ephemeral `--listen :0` port.
    for listener in &listeners {
        println!("listening on {}", listener.local_display());
    }
    let _ = std::io::stdout().flush();
    if queued + running + done + failed > 0 {
        println!(
            "recovered state: {queued} queued, {running} running, {done} done, {failed} failed"
        );
    }

    let server_config = ServerConfig {
        max_conns,
        idle_timeout: Duration::from_secs_f64(args.get("--idle-timeout").unwrap_or(300.0)),
        io_timeout: Duration::from_secs_f64(args.get("--io-timeout").unwrap_or(10.0)),
        ..ServerConfig::default()
    };
    server::run_accept_loop(&service, &listeners, &server_config, &graceful);
    drop(listeners);
    if let BindAddr::Unix(path) = &unix_addr {
        let _ = std::fs::remove_file(path);
    }

    println!("serve: draining (in-flight jobs finishing, intake refused)");
    let report = service.shutdown()?;
    let (pending, done, failed) = report.manifest.counts();
    let mut registry = pp::obs::Registry::new();
    report.metrics.record_metrics(&mut registry);
    print!("{}", registry.snapshot());
    println!(
        "serve stopped: {done} done, {failed} failed, {pending} pending \
         (pending jobs re-queue on the next `pp serve` over {dir})",
    );
    Ok(())
}

/// Renders one job object from the wire as a report table row.
fn print_job_row(job: &Json) {
    let s = |key: &str| job.get(key).and_then(Json::as_str).unwrap_or("");
    let n = |key: &str| job.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{:>6} {:<20} {:<8} {:>8} {:>12} {:>12}  {}",
        n("id"),
        s("name"),
        s("state"),
        n("attempts"),
        n("cycles"),
        n("uops"),
        s("detail"),
    );
}

/// `pp submit`: sends one job, optionally waits for its terminal state.
/// The submit itself is non-idempotent — the client retries connect
/// failures and typed shed refusals (which prove non-admission), but
/// never resends after the request has left the socket.
///
/// # Errors
///
/// [`PpError::Unavailable`] (exit 4) for typed admission refusals and
/// for an unreachable or unresponsive daemon on either transport.
pub fn run_submit(args: &Args) -> Result<(), PpError> {
    let [target] = args.operands()?;
    // Like batch, service jobs default to the combined pipeline so
    // artifacts carry flow and CCT profiles.
    let config = args.str("--config").unwrap_or("combined");
    let spec = spec_string(target, args.scale(), config, args.events()?);
    let client_name = args.str("--client").unwrap_or("cli");
    let mut client = open_client(args);
    let reply = client.request_once(&Json::Obj(vec![
        ("op".to_string(), Json::Str("submit".to_string())),
        ("client".to_string(), Json::Str(client_name.to_string())),
        ("name".to_string(), Json::Str(target.to_string())),
        ("spec".to_string(), Json::Str(spec)),
    ]))?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(refusal_error(&reply));
    }
    let id = reply.get("id").and_then(Json::as_f64).unwrap_or(-1.0);
    println!("submitted job {id} ({target}) as client {client_name}");
    if args.on("--wait") {
        let budget = wait_budget(args);
        // The server blocks up to the whole budget before replying, so
        // the read deadline must outlast it — not the per-op timeout.
        let reply = client.request_deadline(
            &Json::Obj(vec![
                ("op".to_string(), Json::Str("wait".to_string())),
                ("id".to_string(), Json::Num(id)),
                ("timeout_s".to_string(), Json::Num(budget.as_secs_f64())),
            ]),
            budget + Duration::from_secs(5),
        )?;
        let Some(job) = reply.get("job") else {
            return Err(refusal_error(&reply));
        };
        print_job_row(job);
        let state = job.get("state").and_then(Json::as_str).unwrap_or("?");
        if !matches!(state, "done" | "failed") {
            return Err(PpError::io(
                socket(args),
                std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("job {id} still {state} after the wait budget"),
                ),
            ));
        }
    }
    Ok(())
}

/// `pp fetch`: pulls a stored artifact (default: the merged fleet
/// profile) off the daemon, reassembles its base64 chunk frames, and
/// verifies length + CRC before writing it.
///
/// # Errors
///
/// [`PpError::Unavailable`] (exit 4) when the daemon is unreachable or
/// the stream tears/stalls; [`PpError::Corrupt`] (exit 3) when the
/// reassembled bytes fail the advertised CRC; typed refusals map as
/// usual.
pub fn run_fetch(args: &Args) -> Result<(), PpError> {
    let name = args.optional_operand()?;
    let mut client = open_client(args);
    let (file, bytes) = client.fetch(name)?;
    let dest = args.str("--out").unwrap_or(&file);
    std::fs::write(dest, &bytes).map_err(|e| PpError::io(dest, e))?;
    let r = ProfileRef::for_bytes(file.clone(), &bytes);
    let chunks = bytes.len().div_ceil(server::FETCH_CHUNK_RAW);
    println!(
        "fetched {file} -> {dest} ({} bytes, fingerprint {:#010x}, {chunks} chunk(s))",
        r.len, r.crc
    );
    Ok(())
}

/// Renders one registry JSON object (counters/gauges as plain numbers,
/// histograms as `count/sum/max/mean`) in wire order, which the server
/// already sorts.
fn print_registry(registry: &Json) {
    let Json::Obj(fields) = registry else { return };
    for (name, value) in fields {
        match value {
            Json::Num(v) => println!("{name:<36} {v}"),
            Json::Obj(_) => {
                let h = |key: &str| value.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "{name:<36} count={} sum={} max={} mean={}",
                    h("count"),
                    h("sum"),
                    h("max"),
                    h("mean"),
                );
            }
            _ => {}
        }
    }
}

/// One `pp status` line about the merged fleet profile: present (with
/// size and age) or absent. The file appears when a `pp merge
/// --checkpoint-dir` fold runs over this state directory, so operators
/// can see at a glance whether a fleet rollup exists and how stale it
/// is.
fn merged_profile_line(dir: &Path) {
    let path = dir.join(pp::profiler::merge::MERGED_PROFILE_FILE);
    match std::fs::metadata(&path) {
        Err(_) => println!(
            "merged fleet profile: none (run `pp merge {} --checkpoint-dir {} --out ...`)",
            dir.display(),
            dir.display()
        ),
        Ok(meta) => {
            let age = meta
                .modified()
                .ok()
                .and_then(|t| t.elapsed().ok())
                .map(|d| format!(", {}s old", d.as_secs()))
                .unwrap_or_default();
            println!(
                "merged fleet profile: {} ({} bytes{age})",
                path.display(),
                meta.len()
            );
        }
    }
}

/// The offline `pp status` path: when no daemon answers on the socket,
/// report the last checkpointed state from the service directory —
/// clearly labeled as stale, never dressed up as live.
fn status_from_disk(args: &Args, dir: &str) -> Result<(), PpError> {
    use pp::profiler::service::JOURNAL_FILE;
    let path = Path::new(dir);
    let manifest = pp::profiler::BatchManifest::load(path).map_err(PpError::Corrupt)?;
    let intake_lines = std::fs::read_to_string(path.join(JOURNAL_FILE))
        .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count())
        .unwrap_or(0);
    println!(
        "daemon not reachable on {}; stale state from last checkpoint in {dir}:",
        socket(args)
    );
    println!(
        "{:>6} {:<20} {:<8} {:>8} {:>12} {:>12}  detail",
        "id", "name", "state", "attempts", "cycles", "uops"
    );
    for (id, job) in manifest.jobs.iter().enumerate() {
        let state = match job.status {
            pp::profiler::JobStatus::Pending => "pending",
            pp::profiler::JobStatus::Done => "done",
            pp::profiler::JobStatus::Failed => "failed",
        };
        println!(
            "{:>6} {:<20} {:<8} {:>8} {:>12} {:>12}  {}",
            id, job.name, state, job.attempts, job.cycles, job.uops, job.detail,
        );
    }
    let (pending, done, failed) = manifest.counts();
    println!(
        "\nphase: unknown (stale) | {pending} pending, {done} done, {failed} failed \
         | {intake_lines} journaled admissions",
    );
    merged_profile_line(path);
    println!("start `pp serve` over {dir} for live state");
    Ok(())
}

/// `pp status`: one job, the whole table, `--wait-idle`, or the fleet
/// metrics surface (`--metrics`, `--prom`). With no daemon on the
/// socket, the full-table form falls back to the last checkpoint on
/// disk, clearly labeled stale.
///
/// # Errors
///
/// [`PpError::Unavailable`] (exit 4) when the daemon is unreachable and
/// the request needs one (single job, `--wait-idle`, metrics);
/// [`PpError::Io`] (exit 3) when the wait budget expires.
pub fn run_status(args: &Args) -> Result<(), PpError> {
    let id: Option<u64> = args
        .optional_operand()?
        .map(|id| {
            id.parse()
                .map_err(|_| PpError::Usage(format!("bad job id `{id}`")))
        })
        .transpose()?;
    let (wait_idle, prom) = (args.on("--wait-idle"), args.on("--prom"));
    let dir = args.str("--checkpoint-dir").unwrap_or(DEFAULT_STATE_DIR);
    let mut client = open_client(args);
    if let Err(e) = client.connect() {
        // Only the plain table view has a meaningful offline answer.
        if id.is_none() && !wait_idle && !args.on("--metrics") && !prom {
            return status_from_disk(args, dir);
        }
        return Err(e);
    }
    if args.on("--metrics") || prom {
        let reply = client.request(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("metrics".to_string()),
        )]))?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(refusal_error(&reply));
        }
        if prom {
            print!("{}", reply.get("prom").and_then(Json::as_str).unwrap_or(""));
        } else if let Some(registry) = reply.get("registry") {
            print_registry(registry);
        }
        return Ok(());
    }
    if wait_idle {
        let deadline = std::time::Instant::now() + wait_budget(args);
        loop {
            // Each poll blocks server-side for up to 10 s; read under a
            // deadline that outlasts that, not the per-op timeout.
            let reply = client.request_deadline(
                &Json::Obj(vec![
                    ("op".to_string(), Json::Str("wait-idle".to_string())),
                    ("timeout_s".to_string(), Json::Num(10.0)),
                ]),
                Duration::from_secs(15),
            )?;
            if reply.get("idle").and_then(Json::as_bool) == Some(true) {
                println!("server is idle");
                break;
            }
            if std::time::Instant::now() >= deadline {
                return Err(PpError::io(
                    socket(args),
                    std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "server still busy after the wait budget",
                    ),
                ));
            }
        }
        if id.is_none() {
            return Ok(());
        }
    }
    match id {
        Some(id) => {
            let reply = client.request(&Json::Obj(vec![
                ("op".to_string(), Json::Str("status".to_string())),
                ("id".to_string(), Json::Num(id as f64)),
            ]))?;
            let Some(job) = reply.get("job") else {
                return Err(refusal_error(&reply));
            };
            print_job_row(job);
        }
        None => {
            let reply = client.request(&Json::Obj(vec![(
                "op".to_string(),
                Json::Str("status".to_string()),
            )]))?;
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(refusal_error(&reply));
            }
            let phase = reply.get("phase").and_then(Json::as_str).unwrap_or("?");
            let jobs = reply.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
            println!(
                "{:>6} {:<20} {:<8} {:>8} {:>12} {:>12}  detail",
                "id", "name", "state", "attempts", "cycles", "uops"
            );
            for job in jobs {
                print_job_row(job);
            }
            let count = |state: &str| {
                jobs.iter()
                    .filter(|j| j.get("state").and_then(Json::as_str) == Some(state))
                    .count()
            };
            println!(
                "\nphase: {phase} | {} queued, {} running, {} done, {} failed",
                count("queued"),
                count("running"),
                count("done"),
                count("failed"),
            );
            let reply = client.request(&Json::Obj(vec![(
                "op".to_string(),
                Json::Str("metrics".to_string()),
            )]))?;
            if let Some(metrics) = reply.get("metrics") {
                println!("metrics: {}", metrics.render());
            }
            merged_profile_line(Path::new(dir));
        }
    }
    Ok(())
}

/// Renders one event frame as a human tail line.
fn frame_line(frame: &Json) -> String {
    let s = |key: &str| frame.get(key).and_then(Json::as_str).unwrap_or("");
    let n = |key: &str| frame.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let kind = s("event");
    let mut line = format!("#{:<6} ", n("seq"));
    if frame.get("job").is_some() {
        line.push_str(&format!("job {:<4} {:<12} ", n("job"), s("name")));
    } else {
        line.push_str(&format!("{:<21} ", "service"));
    }
    let body = match kind {
        "admitted" => format!("admitted (client {})", s("client")),
        "queued" => format!("queued (depth {})", n("depth")),
        "started" => format!("started on worker {}", n("worker")),
        "retrying" => format!(
            "retrying attempt {} ({}, backoff {} ms)",
            n("attempt"),
            s("class"),
            n("delay_ms"),
        ),
        "quarantined" => format!("quarantined attempt {}: {}", n("attempt"), s("reason")),
        "done" => format!(
            "{} in {} µs after {} attempt(s)",
            s("outcome"),
            n("wall_us"),
            n("attempts"),
        ),
        "state" => format!("phase -> {}", s("phase")),
        "metrics" => {
            let m = |key: &str| {
                frame
                    .get("metrics")
                    .and_then(|m| m.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            format!(
                "metrics: {} done, {} failed, {} published events",
                m("service.jobs.done"),
                m("service.jobs.failed"),
                m("events.published"),
            )
        }
        other => format!("{other}?"),
    };
    line.push_str(&body);
    if frame.get("replay").and_then(Json::as_bool) == Some(true) {
        line.push_str(" [replay]");
    }
    let dropped = n("dropped_since_last");
    if dropped > 0.0 {
        line.push_str(&format!("  (+{dropped} dropped)"));
    }
    line
}

/// `pp watch`: subscribes to the daemon's event bus and tails it until
/// the stream ends or `--deadline` elapses. `--json` passes the NDJSON
/// frames through untouched for tooling.
///
/// # Errors
///
/// [`PpError::Unavailable`] (exit 4) when the daemon is unreachable;
/// [`PpError::Usage`] (exit 1) when the server refuses the filter.
pub fn run_watch(args: &Args) -> Result<(), PpError> {
    args.operands::<0>()?;
    let mut fields = vec![("op".to_string(), Json::Str("subscribe".to_string()))];
    if let Some(job) = args.get::<u64>("--job") {
        fields.push(("job".to_string(), Json::Num(job as f64)));
    }
    // `--events` is a kind filter here, e.g. `done,retrying`.
    for (flag, key) in [("--client", "client"), ("--events", "events")] {
        if let Some(value) = args.str(flag) {
            fields.push((key.to_string(), Json::Str(value.to_string())));
        }
    }
    if let Some(since) = args.get::<u64>("--since") {
        fields.push(("since".to_string(), Json::Num(since as f64)));
    }
    let json = args.on("--json");
    let mut client = open_client(args);
    let ack = client.request(&Json::Obj(fields))?;
    if ack.get("subscribed").and_then(Json::as_bool) != Some(true) {
        return Err(refusal_error(&ack));
    }
    if !json {
        println!(
            "watching {} (phase {}, next seq {})",
            socket(args),
            ack.get("phase").and_then(Json::as_str).unwrap_or("?"),
            ack.get("next_seq").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    let budget = args
        .get::<f64>("--deadline")
        .filter(|d| *d > 0.0)
        .map(Duration::from_secs_f64);
    let started = std::time::Instant::now();
    // Tick-bounded polls: `--deadline` terminates the tail even when
    // the server goes silent mid-frame, and an end of stream (server
    // drained, subscriber dropped) ends the watch cleanly.
    loop {
        if let Some(budget) = budget {
            if started.elapsed() >= budget {
                return Ok(());
            }
        }
        match client.poll_stream_frame()? {
            Some(frame) => {
                if json {
                    println!("{}", frame.render());
                } else {
                    println!("{}", frame_line(&frame));
                }
            }
            None => {
                if !client.stream_open() {
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp::profiler::{AdmitError, RunConfig};

    #[test]
    fn inject_every_parses_and_rejects() {
        let plan = parse_inject_every(Some("panic=5,corrupt=11")).unwrap();
        assert_eq!(plan.panic_every, 5);
        assert_eq!(plan.transient_every, 0);
        assert_eq!(plan.corrupt_every, 11);
        for bad in ["panic", "panic=x", "nope=3"] {
            assert!(parse_inject_every(Some(bad)).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn spec_string_round_trips_through_the_resolver() {
        let spec = spec_string(
            "129.compress",
            0.25,
            "flow-hw",
            (HwEvent::Insts, HwEvent::DcMiss),
        );
        let (program, config) = spec_resolver()(&spec).expect("resolves");
        assert!(!program.procedures().is_empty());
        assert!(matches!(config, RunConfig::FlowHw { .. }));
        assert!(spec_resolver()("scale=1").is_err(), "missing target");
        assert!(spec_resolver()("target=129.compress config=nope").is_err());
        // `scale=` is held to the same rule as the CLI's `--scale`.
        for bad in ["0", "-1", "nan", "inf"] {
            let e = spec_resolver()(&format!("target=129.compress scale={bad}")).err();
            assert!(e.is_some_and(|e| e.starts_with("bad scale value")), "{bad}");
        }
    }

    #[test]
    fn refusals_map_to_the_error_taxonomy() {
        let overloaded = server::error_json("overloaded", "queue full");
        let e = refusal_error(&overloaded);
        assert!(
            matches!(e, PpError::Unavailable(AdmitError::Overloaded { .. })),
            "{e}"
        );
        assert_eq!(e.exit_code(), 4);
        let bad = server::error_json("bad-spec", "no such target");
        assert_eq!(refusal_error(&bad).exit_code(), 1);
        // The client-manufactured transport failure sits in the same
        // exit-4 bucket on both transports.
        let e = PpError::Unavailable(AdmitError::Transport("tcp://x: connect failed".into()));
        assert_eq!(e.exit_code(), 4);
    }

    #[test]
    fn client_args_build_the_shared_client() {
        let argv = "--socket tcp:127.0.0.1:7777 --timeout 2.5 --retries 4 --seed 9";
        let argv: Vec<String> = argv.split(' ').map(String::from).collect();
        let args = Args::parse("status", &argv).expect("status takes these flags");
        assert_eq!(op_timeout(&args), Duration::from_secs_f64(2.5));
        let client = open_client(&args);
        assert_eq!(
            client.addr(),
            &BindAddr::Tcp("127.0.0.1:7777".to_string()),
            "tcp: prefix parses to a TCP address"
        );
        assert_eq!(
            BindAddr::parse("pp.sock"),
            BindAddr::Unix(std::path::PathBuf::from("pp.sock")),
            "a bare socket path stays a Unix address"
        );
    }
}
