//! End-to-end tests of the network-hardened serve transport: the verb
//! matrix over Unix and TCP, connection governance (idle/slow-frame
//! cuts on both transports), submit idempotency under mid-stream
//! resets, and a deterministic chaos-proxy soak.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pp::obs::json::Json;
use pp::profiler::{BindAddr, ChaosProxy, Client, ClientConfig, FaultPlan, PpError, RetryPolicy};

fn pp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pp"))
        .args(args)
        .output()
        .expect("binary spawns")
}

/// A running `pp serve` child plus the addresses it reported.
struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    /// `host:port` of the TCP listener, when `--listen` was given.
    tcp: Option<String>,
    socket: std::path::PathBuf,
    dir: std::path::PathBuf,
}

impl Daemon {
    /// Spawns a daemon over a fresh temp state directory and waits for
    /// its banner to report the bound listeners (so an ephemeral
    /// `--listen :0` port is known before the first client dials).
    fn start(tag: &str, listen: bool, extra: &[&str]) -> Daemon {
        let dir = std::env::temp_dir().join(format!("pp-transport-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let socket = dir.join("pp.sock");
        let state = dir.join("state");
        let mut args = vec![
            "serve".to_string(),
            "--socket".to_string(),
            socket.to_str().expect("utf8").to_string(),
            "--checkpoint-dir".to_string(),
            state.to_str().expect("utf8").to_string(),
            "--jobs".to_string(),
            "2".to_string(),
        ];
        if listen {
            args.push("--listen".to_string());
            args.push("127.0.0.1:0".to_string());
        }
        args.extend(extra.iter().map(|s| s.to_string()));
        let mut child = Command::new(env!("CARGO_BIN_EXE_pp"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut tcp = None;
        let expected = 1 + usize::from(listen);
        let mut seen = 0;
        let t = Instant::now();
        while seen < expected {
            assert!(t.elapsed() < Duration::from_secs(20), "daemon never bound");
            let mut line = String::new();
            assert!(
                stdout.read_line(&mut line).expect("read banner") > 0,
                "daemon exited before binding"
            );
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                seen += 1;
                if let Some(hostport) = addr.strip_prefix("tcp://") {
                    tcp = Some(hostport.to_string());
                }
            }
        }
        Daemon {
            child,
            stdout,
            tcp,
            socket,
            dir,
        }
    }

    fn unix_addr(&self) -> String {
        self.socket.to_str().expect("utf8").to_string()
    }

    fn tcp_addr(&self) -> String {
        format!("tcp:{}", self.tcp.as_ref().expect("--listen was given"))
    }

    /// SIGTERM, wait for a clean drain, return the remaining stdout.
    fn stop(mut self) -> String {
        let pid = self.child.id().to_string();
        assert!(Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("kill runs")
            .success());
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "drain must exit 0:\n{rest}");
        let _ = std::fs::remove_dir_all(&self.dir);
        rest
    }
}

/// A library client with fast, deterministic retries for tests.
fn client(addr: &str, retries: u32, op_timeout: Duration) -> Client {
    Client::new(
        BindAddr::parse(addr),
        ClientConfig {
            op_timeout,
            tick: Duration::from_millis(20),
            retry: RetryPolicy {
                attempts: retries,
                base_ms: 5,
                cap_ms: 100,
                seed: 7,
            },
        },
    )
}

fn submit_request(spec: &str) -> Json {
    Json::Obj(vec![
        ("op".to_string(), Json::Str("submit".to_string())),
        ("client".to_string(), Json::Str("soak".to_string())),
        ("name".to_string(), Json::Str("129.compress".to_string())),
        ("spec".to_string(), Json::Str(spec.to_string())),
    ])
}

const SPEC: &str = "target=129.compress scale=0.02 config=flow events=insts,dc_miss";

/// The persisted artifact file names of every done job, by id order.
fn artifact_names(addr: &str) -> Vec<String> {
    let mut c = client(addr, 2, Duration::from_secs(10));
    let reply = c
        .request(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("status".to_string()),
        )]))
        .expect("status");
    let jobs = reply.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    let names: Vec<String> = jobs
        .iter()
        .filter(|j| j.get("state").and_then(Json::as_str) == Some("done"))
        .filter_map(|j| {
            j.get("flow")
                .or_else(|| j.get("cct"))
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .collect();
    assert!(!names.is_empty(), "no artifacts: {}", reply.render());
    names
}

/// Every client verb behaves identically over the Unix socket and the
/// TCP listener: same outputs, same artifacts, same exit codes.
#[test]
fn verb_matrix_is_transport_agnostic() {
    let daemon = Daemon::start("matrix", true, &[]);
    let addrs = [daemon.unix_addr(), daemon.tcp_addr()];
    for (i, addr) in addrs.iter().enumerate() {
        let out = pp(&[
            "submit",
            "129.compress",
            "--socket",
            addr,
            "--scale",
            "0.02",
            "--wait",
        ]);
        assert!(
            out.status.success(),
            "submit over {addr}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&format!("submitted job {i}")), "{text}");
        assert!(text.contains("done"), "{text}");
    }
    for addr in &addrs {
        // The full table shows both jobs to both transports.
        let out = pp(&["status", "--socket", addr]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("phase: accepting"), "{text}");
        assert!(text.contains("2 done"), "{text}");
        // The metrics surface carries the transport counters.
        let out = pp(&["status", "--metrics", "--socket", addr]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("transport.accepted"), "{text}");
        assert!(text.contains("transport.conn_lifetime_us"), "{text}");
        // A single-job query.
        let out = pp(&["status", "0", "--socket", addr]);
        assert!(out.status.success());
        // The event bus replays history to a late subscriber.
        let out = pp(&[
            "watch",
            "--socket",
            addr,
            "--since",
            "0",
            "--json",
            "--deadline",
            "1",
        ]);
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("\"event\":\"done\""), "{text}");
    }
    // The same artifact fetched over each transport is byte-identical.
    let artifact = artifact_names(&addrs[0]).remove(0);
    let fetched: Vec<Vec<u8>> = addrs
        .iter()
        .map(|addr| {
            let mut c = client(addr, 2, Duration::from_secs(10));
            let (file, bytes) = c.fetch(Some(&artifact)).expect("fetch");
            assert_eq!(file, artifact);
            bytes
        })
        .collect();
    assert!(!fetched[0].is_empty());
    assert_eq!(fetched[0], fetched[1], "transports must not alter bytes");
    let stopped = daemon.stop();
    assert!(stopped.contains("serve stopped: 2 done"), "{stopped}");
}

/// Reads frames off a raw byte stream until EOF or a deadline.
fn read_all(stream: &mut impl std::io::Read, budget: Duration) -> String {
    let t = Instant::now();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    while t.elapsed() < budget {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Satellite: the governance limits protect the Unix path exactly like
/// the TCP path — an idle peer and a slow-loris half-frame are both cut
/// with a typed frame on either transport.
#[test]
fn idle_and_slow_peers_are_cut_on_both_transports() {
    let daemon = Daemon::start(
        "governance",
        true,
        &["--idle-timeout", "0.2", "--io-timeout", "0.3"],
    );
    let read_timeout = Some(Duration::from_millis(50));
    let budget = Duration::from_secs(5);

    // Idle peers: connect, send nothing.
    let mut unix = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    unix.set_read_timeout(read_timeout).unwrap();
    let text = read_all(&mut unix, budget);
    assert!(text.contains("\"error\":\"idle-timeout\""), "unix: {text}");
    let mut tcp =
        std::net::TcpStream::connect(daemon.tcp.as_deref().expect("tcp")).expect("connect");
    tcp.set_read_timeout(read_timeout).unwrap();
    let text = read_all(&mut tcp, budget);
    assert!(text.contains("\"error\":\"idle-timeout\""), "tcp: {text}");

    // Slow-loris: a partial frame, then silence, is cut by the frame
    // deadline rather than holding a connection slot forever.
    let mut unix = std::os::unix::net::UnixStream::connect(&daemon.socket).expect("connect");
    unix.set_read_timeout(read_timeout).unwrap();
    unix.write_all(b"{\"op\":").unwrap();
    let text = read_all(&mut unix, budget);
    assert!(text.contains("\"error\":\"slow-frame\""), "unix: {text}");
    let mut tcp =
        std::net::TcpStream::connect(daemon.tcp.as_deref().expect("tcp")).expect("connect");
    tcp.set_read_timeout(read_timeout).unwrap();
    tcp.write_all(b"{\"op\":").unwrap();
    let text = read_all(&mut tcp, budget);
    assert!(text.contains("\"error\":\"slow-frame\""), "tcp: {text}");

    // Both cut classes are counted.
    let out = pp(&["status", "--metrics", "--socket", &daemon.unix_addr()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("transport.idle_closed"), "{text}");
    daemon.stop();
}

/// Satellite: a submit whose reply is torn mid-stream is never resent —
/// the job count on the daemon stays exactly one — while a retrying
/// client reconnects fine for idempotent requests on the next
/// connection.
#[test]
fn submits_are_never_duplicated_after_an_ack() {
    let daemon = Daemon::start("idempotent", true, &[]);
    let upstream = BindAddr::parse(&daemon.tcp_addr());
    // Accept order: conn 0 gets its reply torn after 2 bytes, every
    // later connection is clean.
    let plan = FaultPlan::parse("tear:2,ok,ok,ok").expect("plan");
    let proxy = ChaosProxy::start("127.0.0.1:0", upstream, plan, 0).expect("proxy");
    let via_proxy = format!("tcp:{}", proxy.addr());

    // The torn submit: bytes left the socket, so the client must fail
    // typed instead of retrying — even with retry budget available.
    let mut c = client(&via_proxy, 3, Duration::from_secs(5));
    let err = c
        .request_once(&submit_request(SPEC))
        .expect_err("torn reply must fail the submit");
    assert!(
        matches!(err, PpError::Unavailable(_)),
        "typed transport failure, got: {err}"
    );
    assert_eq!(err.exit_code(), 4);

    // The daemon admitted it exactly once; nothing was resent.
    let mut c = client(&via_proxy, 3, Duration::from_secs(30));
    let reply = c
        .request(&Json::Obj(vec![(
            "op".to_string(),
            Json::Str("status".to_string()),
        )]))
        .expect("status over a clean proxy connection");
    let jobs = reply.get("jobs").and_then(Json::as_arr).unwrap_or(&[]);
    assert_eq!(jobs.len(), 1, "exactly one admission: {}", reply.render());

    // A clean submit through the same proxy still works.
    let mut c = client(&via_proxy, 3, Duration::from_secs(5));
    let reply = c.request_once(&submit_request(SPEC)).expect("clean submit");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    drop(c);
    let mut proxy = proxy;
    proxy.stop();
    daemon.stop();
}

/// The chaos soak: a 12-job campaign through a fault-injecting proxy
/// completes with typed outcomes only — no hangs, no panics — and the
/// artifacts fetched through the faulty path are byte-identical to the
/// ones fetched directly.
#[test]
fn chaos_soak_yields_typed_outcomes_and_identical_artifacts() {
    let daemon = Daemon::start("soak", true, &["--jobs", "4"]);
    let upstream = BindAddr::parse(&daemon.tcp_addr());
    let plan = FaultPlan::parse("ok,delay:10,throttle:128,reset:1,blackhole").expect("plan");
    // seed 1 rotates the plan: conn i gets plan[(i + 1) % 5].
    let proxy = ChaosProxy::start("127.0.0.1:0", upstream.clone(), plan, 1).expect("proxy");
    let via_proxy = format!("tcp:{}", proxy.addr());

    let mut admitted = 0u32;
    let mut typed_failures = 0u32;
    for i in 0..12 {
        // A fresh client per submit: one connection each, so the fault
        // assignment is exactly the accept-order plan.
        let mut c = client(&via_proxy, 2, Duration::from_millis(1500));
        match c.request_once(&submit_request(SPEC)) {
            Ok(reply) => {
                assert_eq!(
                    reply.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "submit {i}: {}",
                    reply.render()
                );
                admitted += 1;
            }
            // Blackholed connections time out typed; nothing panics or
            // hangs past the op deadline.
            Err(e) => {
                assert!(matches!(e, PpError::Unavailable(_)), "submit {i}: {e}");
                typed_failures += 1;
            }
        }
    }
    // Deterministic plan: conns 0..12 rotated by seed 1 hit `blackhole`
    // (slot 4) at i = 3 and i = 8.
    assert_eq!(typed_failures, 2, "exactly the blackholed submits fail");
    assert_eq!(admitted, 10);

    // Let the fleet drain directly (not through the proxy).
    let out = pp(&[
        "status",
        "--socket",
        &daemon.unix_addr(),
        "--wait-idle",
        "--deadline",
        "120",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Artifact byte-identity: direct fetch vs fetch through a degraded
    // (but not lossy) proxy — delay and throttle reorder timing, never
    // bytes. The lossy proxy is done; tear it down first.
    let mut proxy = proxy;
    proxy.stop();
    let degraded = FaultPlan::parse("delay:10,throttle:64").expect("plan");
    let mut slow_proxy = ChaosProxy::start("127.0.0.1:0", upstream, degraded, 0).expect("proxy");
    let via_slow = format!("tcp:{}", slow_proxy.addr());
    let names = artifact_names(&daemon.unix_addr());
    assert!(names.len() >= 2, "{names:?}");
    let mut direct = client(&daemon.tcp_addr(), 2, Duration::from_secs(30));
    let mut throttled = client(&via_slow, 2, Duration::from_secs(30));
    for name in names.iter().take(2) {
        let (_, want) = direct.fetch(Some(name)).expect("direct fetch");
        let (_, got) = throttled.fetch(Some(name)).expect("fetch through chaos");
        assert!(!want.is_empty());
        assert_eq!(want, got, "{name} must survive the proxy bit-exact");
    }
    drop(direct);
    drop(throttled);
    slow_proxy.stop();

    // No leaked connections: the open-connection gauge settles to 0.
    let t = Instant::now();
    loop {
        let out = pp(&["status", "--metrics", "--socket", &daemon.unix_addr()]);
        let text = String::from_utf8_lossy(&out.stdout);
        let open_zero = text
            .lines()
            .any(|l| l.starts_with("transport.open") && l.trim().ends_with(" 0"));
        // The metrics connection itself is one open connection; the
        // gauge is sampled at request time, so accept 1 as well once
        // everything else has drained.
        let settled = text.lines().any(|l| {
            l.starts_with("transport.open")
                && (l.trim().ends_with(" 0") || l.trim().ends_with(" 1"))
        });
        if open_zero || settled {
            assert!(text.contains("transport.accepted"), "{text}");
            break;
        }
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "connections leaked: {text}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let stopped = daemon.stop();
    assert!(stopped.contains("10 done"), "{stopped}");
}
