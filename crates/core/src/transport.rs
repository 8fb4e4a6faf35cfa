//! Network transport for the profile service: one `Listener`/`Stream`
//! seam over Unix-domain sockets and TCP, plus the shared retrying
//! [`Client`] every CLI verb speaks through.
//!
//! The NDJSON protocol itself (frames, ops, refusals) is defined in
//! [`crate::server`]; this module only moves bytes. The seam exists so
//! `pp serve` can bind both a Unix socket and a `--listen <addr:port>`
//! TCP endpoint and serve `submit`/`status`/`watch`/`fetch`/`subscribe`
//! unchanged over either — and so every failure mode a real network
//! adds (connect refused, half-open peers, mid-stream resets, slow
//! reads) surfaces as a *typed* outcome, never a hang:
//!
//! * every read is tick-bounded ([`Client`] polls with a short read
//!   timeout and accounts the elapsed wait against an explicit
//!   deadline), so a black-holed connection ends in a typed timeout;
//! * connect failures and mid-stream resets retry under a
//!   deterministic jittered backoff ([`RetryPolicy`], the closed form
//!   mirrors `JobExecutor::backoff`), bounded by the attempt budget;
//! * server refusals that carry a `retry_after_ms` hint (`overloaded`,
//!   `draining`) are honored: the client sleeps the hinted delay and
//!   resubmits — refusals are safe to retry because a refused request
//!   was, by definition, not admitted;
//! * non-idempotent requests ([`Client::request_once`], i.e. `submit`)
//!   are never resent once their bytes have left the socket: a reset
//!   between send and ack means the server may have admitted the job,
//!   and a duplicate would double-count it.
//!
//! Exhausting the budget maps to
//! [`PpError::Unavailable`]([`AdmitError::Transport`]) — exit code 4 on
//! both transports, the same "back off and come back" answer an
//! `Overloaded` refusal earns.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pp_obs::json::{self, Json};

use crate::error::PpError;
use crate::service::AdmitError;
use crate::splitmix64;

/// Bound on one NDJSON frame in either direction; longer lines earn a
/// typed `frame-too-large` reply server-side and are discarded up to
/// the next newline.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------

/// Where a daemon listens / a client connects: a Unix-domain socket
/// path or a TCP `host:port`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindAddr {
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP endpoint, `host:port`.
    Tcp(String),
}

impl BindAddr {
    /// Parses an address the way the CLI flags spell it: `tcp:HOST:PORT`
    /// or a bare `HOST:PORT` (no slashes, numeric port) is TCP;
    /// `unix:PATH` or anything else is a socket path. The prefixes make
    /// the intent explicit when a filename could be mistaken for an
    /// endpoint (`./odd:1`).
    pub fn parse(s: &str) -> BindAddr {
        if let Some(rest) = s.strip_prefix("tcp:") {
            return BindAddr::Tcp(rest.to_string());
        }
        #[cfg(unix)]
        if let Some(rest) = s.strip_prefix("unix:") {
            return BindAddr::Unix(PathBuf::from(rest));
        }
        if looks_like_host_port(s) {
            return BindAddr::Tcp(s.to_string());
        }
        #[cfg(unix)]
        {
            BindAddr::Unix(PathBuf::from(s))
        }
        #[cfg(not(unix))]
        {
            BindAddr::Tcp(s.to_string())
        }
    }
}

/// `HOST:PORT` with a numeric port and no path separators?
fn looks_like_host_port(s: &str) -> bool {
    if s.contains('/') || s.contains('\\') {
        return false;
    }
    match s.rsplit_once(':') {
        Some((host, port)) => !host.is_empty() && port.parse::<u16>().is_ok(),
        None => false,
    }
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            BindAddr::Unix(p) => write!(f, "{}", p.display()),
            BindAddr::Tcp(a) => write!(f, "tcp://{a}"),
        }
    }
}

// ---------------------------------------------------------------------
// Listener / Stream
// ---------------------------------------------------------------------

/// A bound server socket on either transport.
pub enum Listener {
    /// A Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr`. A stale Unix socket file left by a killed daemon
    /// is removed first; TCP accepts `host:0` and reports the
    /// kernel-chosen port via [`Listener::local_display`].
    pub fn bind(addr: &BindAddr) -> io::Result<Listener> {
        match addr {
            #[cfg(unix)]
            BindAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            BindAddr::Tcp(spec) => Ok(Listener::Tcp(TcpListener::bind(spec.as_str())?)),
        }
    }

    /// Puts the listener in non-blocking accept mode (the daemon's
    /// accept loop polls several listeners plus a stop token).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one connection. Accepted streams are returned in
    /// blocking mode with Nagle disabled on TCP (the protocol is
    /// request/response over short lines).
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Stream::Unix(stream))
            }
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
        }
    }

    /// The bound address, as printed in the daemon banner — for TCP
    /// this is the *actual* address, so `--listen 127.0.0.1:0` reports
    /// the ephemeral port tests and scripts need to discover.
    pub fn local_display(&self) -> String {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unix>".to_string()),
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| format!("tcp://{a}"))
                .unwrap_or_else(|_| "tcp://?".to_string()),
        }
    }
}

/// One accepted or dialed connection on either transport.
pub enum Stream {
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

macro_rules! on_stream {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            #[cfg(unix)]
            Stream::Unix($s) => $body,
            Stream::Tcp($s) => $body,
        }
    };
}

impl Stream {
    /// Dials `addr` (one attempt; retry policy lives in [`Client`]).
    pub fn connect(addr: &BindAddr) -> io::Result<Stream> {
        match addr {
            #[cfg(unix)]
            BindAddr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            BindAddr::Tcp(spec) => {
                let stream = TcpStream::connect(spec.as_str())?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
        }
    }

    /// Clones the handle (one side reads, the other writes).
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Bounds every read; `None` blocks forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        on_stream!(self, s => s.set_read_timeout(timeout))
    }

    /// Bounds every write; `None` blocks forever.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        on_stream!(self, s => s.set_write_timeout(timeout))
    }

    /// Half- or full-closes the stream.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        on_stream!(self, s => s.shutdown(how))
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_stream!(self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_stream!(self, s => s.write(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        on_stream!(self, s => s.flush())
    }
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Deterministic jittered exponential backoff for client reconnects,
/// mirroring `JobExecutor::backoff`: attempt `a` (1-based) sleeps
/// `min(base · 2^(a−1), cap) + splitmix64(seed ⊕ (a << 32)) % base`
/// milliseconds. Same `(seed, attempt)` → same delay, on every host.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub attempts: u32,
    /// Backoff base in milliseconds; 0 disables sleeping entirely.
    pub base_ms: u64,
    /// Cap on the exponential term, in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 2,
            base_ms: 25,
            cap_ms: 2_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The closed-form delay before retry `attempt` (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.base_ms == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .base_ms
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(16))
            .min(self.cap_ms);
        let jitter = splitmix64(self.seed ^ (u64::from(attempt) << 32)) % self.base_ms;
        Duration::from_millis(exp + jitter)
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Client knobs beyond the retry policy.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Per-request read deadline: how long one reply (or one streamed
    /// frame, for `fetch`) may take before the request fails typed.
    pub op_timeout: Duration,
    /// Poll tick bounding every blocking read, so deadlines are
    /// observed even when the peer goes completely silent.
    pub tick: Duration,
    /// Reconnect/retry schedule.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            op_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(250),
            retry: RetryPolicy::default(),
        }
    }
}

/// One live connection: a buffered reader half, a writer half, and the
/// partial-line carry buffer that survives read-timeout ticks.
struct Wire {
    reader: BufReader<Stream>,
    writer: Stream,
    buf: Vec<u8>,
}

/// How one low-level read ended.
enum WireRead {
    /// A complete frame line.
    Frame(Json),
    /// The read deadline elapsed with no complete frame.
    TimedOut,
    /// The peer closed (EOF) or reset the connection.
    Gone(String),
}

/// The shared NDJSON client: every `pp` client verb (`submit`,
/// `status`, `wait`, `watch`, `fetch`, `metrics`) speaks through this
/// one implementation, over either transport. See the module docs for
/// the retry semantics.
pub struct Client {
    addr: BindAddr,
    config: ClientConfig,
    wire: Option<Wire>,
}

impl Client {
    /// A client for `addr` (not yet connected; the first request
    /// dials).
    pub fn new(addr: BindAddr, config: ClientConfig) -> Client {
        Client {
            addr,
            config,
            wire: None,
        }
    }

    /// The address this client dials.
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    fn unavailable(&self, detail: impl std::fmt::Display) -> PpError {
        PpError::Unavailable(AdmitError::Transport(format!("{}: {detail}", self.addr)))
    }

    /// One dial attempt.
    fn dial(&self) -> io::Result<Wire> {
        let stream = Stream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.config.tick))?;
        stream.set_write_timeout(Some(self.config.op_timeout.max(Duration::from_secs(1))))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Wire {
            reader,
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// Connects (with the retry schedule) without sending anything —
    /// `pp watch` dials first so a refused subscribe is distinguishable
    /// from an absent daemon.
    pub fn connect(&mut self) -> Result<(), PpError> {
        if self.wire.is_some() {
            return Ok(());
        }
        let mut attempt = 0u32;
        loop {
            match self.dial() {
                Ok(wire) => {
                    self.wire = Some(wire);
                    return Ok(());
                }
                Err(e) => {
                    if attempt >= self.config.retry.attempts {
                        return Err(self.unavailable(format_args!("connect failed: {e}")));
                    }
                    attempt += 1;
                    std::thread::sleep(self.config.retry.delay(attempt));
                }
            }
        }
    }

    /// Reads one frame line within `deadline`, carrying partial bytes
    /// across tick timeouts so a slow-trickling frame is finished, not
    /// lost.
    fn read_frame_deadline(&mut self, deadline: Duration) -> Result<WireRead, PpError> {
        let started = Instant::now();
        let wire = self.wire.as_mut().expect("connected");
        loop {
            match wire.reader.read_until(b'\n', &mut wire.buf) {
                Ok(0) => return Ok(WireRead::Gone("peer closed the connection".into())),
                Ok(_) if wire.buf.last() != Some(&b'\n') => {} // torn, keep reading
                Ok(_) => {
                    let line = String::from_utf8_lossy(&wire.buf).trim().to_string();
                    wire.buf.clear();
                    if line.is_empty() {
                        continue;
                    }
                    let frame = json::parse(&line).map_err(|e| {
                        PpError::Corrupt(pp_cct::SerializeError::Format(format!(
                            "unparsable server frame: {e}"
                        )))
                    })?;
                    return Ok(WireRead::Frame(frame));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Ok(WireRead::Gone(e.to_string())),
            }
            if started.elapsed() >= deadline {
                return Ok(WireRead::TimedOut);
            }
        }
    }

    /// Sends one request and reads one reply, retrying per the policy.
    /// `resend_on_reset` is the idempotency switch: when `false`
    /// (submit), a transport failure *after the request bytes left*
    /// is terminal — the server may have acted on them.
    fn request_with(
        &mut self,
        request: &Json,
        resend_on_reset: bool,
        deadline: Duration,
    ) -> Result<Json, PpError> {
        let line = format!("{}\n", request.render());
        let mut attempt = 0u32;
        let mut budget = |client: &mut Client, after: Option<Duration>| -> Result<(), PpError> {
            client.wire = None;
            if attempt >= client.config.retry.attempts {
                return Err(PpError::Usage(String::new())); // replaced by caller
            }
            attempt += 1;
            std::thread::sleep(after.unwrap_or_else(|| client.config.retry.delay(attempt)));
            Ok(())
        };
        loop {
            if self.wire.is_none() {
                match self.dial() {
                    Ok(wire) => self.wire = Some(wire),
                    Err(e) => {
                        // Connect failures are always safe to retry —
                        // nothing was sent.
                        if budget(self, None).is_err() {
                            return Err(self.unavailable(format_args!("connect failed: {e}")));
                        }
                        continue;
                    }
                }
            }
            let sent = {
                let wire = self.wire.as_mut().expect("connected");
                wire.writer
                    .write_all(line.as_bytes())
                    .and_then(|()| wire.writer.flush())
            };
            if let Err(e) = sent {
                // The request may or may not have reached the peer.
                if resend_on_reset {
                    if budget(self, None).is_err() {
                        return Err(self.unavailable(format_args!("send failed: {e}")));
                    }
                    continue;
                }
                self.wire = None;
                return Err(self.unavailable(format_args!(
                    "send failed after the request left the socket: {e} \
                     (not retried: the request is not idempotent)"
                )));
            }
            match self.read_frame_deadline(deadline)? {
                WireRead::Frame(reply) => {
                    // Shed refusals carrying a retry hint are safe to
                    // retry for every op: a refused request was not
                    // admitted. Honor the server's pacing.
                    if let Some(after) = retry_after(&reply) {
                        if budget(self, Some(after)).is_ok() {
                            continue;
                        }
                    }
                    return Ok(reply);
                }
                WireRead::TimedOut => {
                    self.wire = None;
                    if resend_on_reset && budget(self, None).is_ok() {
                        continue;
                    }
                    return Err(self.unavailable(format_args!(
                        "no reply within {:.1}s",
                        deadline.as_secs_f64()
                    )));
                }
                WireRead::Gone(detail) => {
                    if resend_on_reset {
                        if budget(self, None).is_err() {
                            return Err(
                                self.unavailable(format_args!("connection reset: {detail}"))
                            );
                        }
                        continue;
                    }
                    self.wire = None;
                    return Err(self.unavailable(format_args!(
                        "connection reset after the request was sent ({detail}); \
                         not retried — the server may have admitted it"
                    )));
                }
            }
        }
    }

    /// One idempotent request/response (status, ping, metrics, wait,
    /// fetch acks, subscribe acks): reconnects and resends on resets.
    pub fn request(&mut self, request: &Json) -> Result<Json, PpError> {
        self.request_with(request, true, self.config.op_timeout)
    }

    /// An idempotent request whose *reply* may legitimately take longer
    /// than the op timeout (`wait`, `wait-idle`): the caller supplies
    /// the read deadline.
    pub fn request_deadline(
        &mut self,
        request: &Json,
        deadline: Duration,
    ) -> Result<Json, PpError> {
        self.request_with(request, true, deadline)
    }

    /// One NON-idempotent request (`submit`): connect failures and
    /// typed shed refusals retry, but once the request bytes have left
    /// the socket a transport failure is terminal — never a duplicate
    /// submission after a (possibly lost) ack.
    pub fn request_once(&mut self, request: &Json) -> Result<Json, PpError> {
        self.request_with(request, false, self.config.op_timeout)
    }

    /// One tick-bounded poll of a streaming connection (`subscribe`,
    /// the chunk frames of `fetch`). `Ok(None)` is a quiet tick; the
    /// caller decides when quiet means dead.
    pub fn poll_stream_frame(&mut self) -> Result<Option<Json>, PpError> {
        if self.wire.is_none() {
            return Err(self.unavailable("not connected"));
        }
        match self.read_frame_deadline(Duration::ZERO)? {
            WireRead::Frame(frame) => Ok(Some(frame)),
            WireRead::TimedOut => Ok(None),
            WireRead::Gone(_) => {
                self.wire = None;
                Ok(None)
            }
        }
    }

    /// Is the streaming connection still up? (`poll_stream_frame`
    /// clears the wire on EOF/reset.)
    pub fn stream_open(&self) -> bool {
        self.wire.is_some()
    }

    /// One streamed frame within the op timeout, or a typed failure —
    /// the `fetch` chunk reader.
    fn stream_frame_deadline(&mut self) -> Result<Json, PpError> {
        if self.wire.is_none() {
            return Err(self.unavailable("stream closed"));
        }
        match self.read_frame_deadline(self.config.op_timeout)? {
            WireRead::Frame(frame) => Ok(frame),
            WireRead::TimedOut => Err(self.unavailable(format_args!(
                "stream stalled beyond {:.1}s",
                self.config.op_timeout.as_secs_f64()
            ))),
            WireRead::Gone(detail) => {
                self.wire = None;
                Err(self.unavailable(format_args!("stream reset: {detail}")))
            }
        }
    }

    /// Fetches a stored artifact: ack, base64 chunk frames, done frame,
    /// then length + CRC verification of the reassembled bytes. Returns
    /// `(file name, bytes)`. The ack leg retries like any idempotent
    /// request; once chunks are streaming, a failure is terminal (the
    /// caller can rerun the whole fetch — it is read-only).
    pub fn fetch(&mut self, name: Option<&str>) -> Result<(String, Vec<u8>), PpError> {
        let mut request = vec![("op".to_string(), Json::Str("fetch".to_string()))];
        if let Some(name) = name {
            request.push(("file".to_string(), Json::Str(name.to_string())));
        }
        let ack = self.request(&Json::Obj(request))?;
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(refusal_error(&ack));
        }
        let file = ack
            .get("file")
            .and_then(Json::as_str)
            .unwrap_or("artifact")
            .to_string();
        let len = ack.get("len").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let crc = ack.get("crc").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        let chunks = ack.get("chunks").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let corrupt = |detail: String| {
            PpError::Corrupt(pp_cct::SerializeError::Format(format!(
                "fetch {file}: {detail}"
            )))
        };
        let mut bytes: Vec<u8> = Vec::with_capacity(len as usize);
        for i in 0..chunks {
            let frame = self.stream_frame_deadline()?;
            if frame.get("chunk").and_then(Json::as_f64) != Some(i as f64) {
                return Err(corrupt(format!(
                    "expected chunk {i}, got {}",
                    frame.render()
                )));
            }
            let data = frame.get("data").and_then(Json::as_str).unwrap_or("");
            let chunk = b64_decode(data)
                .ok_or_else(|| corrupt(format!("chunk {i} is not valid base64")))?;
            bytes.extend_from_slice(&chunk);
        }
        let done = self.stream_frame_deadline()?;
        if done.get("done").and_then(Json::as_bool) != Some(true) {
            return Err(corrupt("stream ended without a done frame".to_string()));
        }
        let got = crate::supervisor::manifest::ProfileRef::for_bytes(file.clone(), &bytes);
        if got.len != len || got.crc != crc {
            return Err(corrupt(format!(
                "advertised {len} bytes fingerprint {crc:#010x}, \
                 received {} bytes fingerprint {:#010x}",
                got.len, got.crc
            )));
        }
        Ok((file, bytes))
    }
}

/// The `retry_after_ms` hint of a shed refusal (`overloaded`,
/// `draining`), when the server sent one.
fn retry_after(reply: &Json) -> Option<Duration> {
    if reply.get("ok").and_then(Json::as_bool) != Some(false) {
        return None;
    }
    match reply.get("error").and_then(Json::as_str) {
        Some("overloaded" | "draining") => reply
            .get("retry_after_ms")
            .and_then(Json::as_f64)
            .filter(|ms| *ms >= 0.0)
            .map(|ms| Duration::from_millis(ms as u64)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Refusal mapping + base64
// ---------------------------------------------------------------------

/// Maps a refusal reply back onto the typed error taxonomy: admission
/// refusals become [`PpError::Unavailable`] (exit 4), an unusable spec
/// is a usage error (exit 1).
pub fn refusal_error(reply: &Json) -> PpError {
    let kind = reply.get("error").and_then(Json::as_str).unwrap_or("?");
    let detail = reply
        .get("detail")
        .and_then(Json::as_str)
        .unwrap_or("no detail")
        .to_string();
    let num = |key: &str| reply.get(key).and_then(Json::as_f64).unwrap_or(0.0) as usize;
    match kind {
        "overloaded" => PpError::Unavailable(AdmitError::Overloaded {
            capacity: num("capacity"),
        }),
        "quota-exceeded" => PpError::Unavailable(AdmitError::QuotaExceeded {
            client: String::new(),
            quota: num("quota"),
        }),
        "draining" => PpError::Unavailable(AdmitError::Draining),
        "stopped" => PpError::Unavailable(AdmitError::Stopped),
        "io" => PpError::Unavailable(AdmitError::Io(detail)),
        "idle-timeout" | "slow-frame" => PpError::Unavailable(AdmitError::Transport(detail)),
        "bad-spec" | "bad-request" => PpError::Usage(detail),
        other => PpError::Usage(format!("server refused ({other}): {detail}")),
    }
}

/// The standard base64 alphabet, hand-rolled because artifact bytes
/// must cross a line-oriented JSON protocol and the toolchain carries
/// no dependencies.
const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 with `=` padding.
pub fn b64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let n = (u32::from(chunk[0]) << 16)
            | (u32::from(chunk.get(1).copied().unwrap_or(0)) << 8)
            | u32::from(chunk.get(2).copied().unwrap_or(0));
        out.push(B64_ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Inverse of [`b64_encode`]; `None` on any malformed input (bad
/// length, alien characters, interior padding).
pub fn b64_decode(s: &str) -> Option<Vec<u8>> {
    let val = |c: u8| -> Option<u32> {
        Some(match c {
            b'A'..=b'Z' => u32::from(c - b'A'),
            b'a'..=b'z' => u32::from(c - b'a') + 26,
            b'0'..=b'9' => u32::from(c - b'0') + 52,
            b'+' => 62,
            b'/' => 63,
            _ => return None,
        })
    };
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, q) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = q.iter().filter(|&&c| c == b'=').count();
        // Padding is only legal in the final quad's tail positions.
        if pad > 0
            && (!last || pad > 2 || q[0] == b'=' || q[1] == b'=' || q[2] == b'=' && q[3] != b'=')
        {
            return None;
        }
        let n = (val(q[0])? << 18)
            | (val(q[1])? << 12)
            | if q[2] == b'=' { 0 } else { val(q[2])? << 6 }
            | if q[3] == b'=' { 0 } else { val(q[3])? };
        out.push((n >> 16) as u8);
        if q[2] != b'=' {
            out.push((n >> 8) as u8);
        }
        if q[3] != b'=' {
            out.push(n as u8);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_addr_parses_every_form() {
        assert_eq!(
            BindAddr::parse("tcp:127.0.0.1:7070"),
            BindAddr::Tcp("127.0.0.1:7070".to_string())
        );
        assert_eq!(
            BindAddr::parse("localhost:9999"),
            BindAddr::Tcp("localhost:9999".to_string()),
            "bare host:port with a numeric port is TCP"
        );
        #[cfg(unix)]
        {
            use std::path::PathBuf;
            assert_eq!(
                BindAddr::parse("unix:/tmp/pp.sock"),
                BindAddr::Unix(PathBuf::from("/tmp/pp.sock"))
            );
            assert_eq!(
                BindAddr::parse("pp.sock"),
                BindAddr::Unix(PathBuf::from("pp.sock"))
            );
            assert_eq!(
                BindAddr::parse("./state/pp.sock:1"),
                BindAddr::Unix(PathBuf::from("./state/pp.sock:1")),
                "a path separator keeps it a socket path, whatever the suffix"
            );
            assert_eq!(
                BindAddr::parse("host:99999"),
                BindAddr::Unix(PathBuf::from("host:99999")),
                "an impossible port number is not a TCP address"
            );
        }
        assert_eq!(
            BindAddr::Tcp("1.2.3.4:5".to_string()).to_string(),
            "tcp://1.2.3.4:5"
        );
    }

    /// The backoff schedule is closed-form and host-independent — the
    /// same guarantee `JobExecutor::backoff` makes, asserted the same
    /// way: recompute each delay from the formula and demand equality.
    #[test]
    fn retry_schedule_is_deterministic_and_closed_form() {
        let policy = RetryPolicy {
            attempts: 6,
            base_ms: 25,
            cap_ms: 2_000,
            seed: 42,
        };
        for attempt in 1..=6u32 {
            let exp = (25u64 << (attempt - 1).min(16)).min(2_000);
            let jitter = splitmix64(42 ^ (u64::from(attempt) << 32)) % 25;
            assert_eq!(
                policy.delay(attempt),
                Duration::from_millis(exp + jitter),
                "attempt {attempt}"
            );
            // And a second evaluation is bit-identical.
            assert_eq!(policy.delay(attempt), policy.delay(attempt));
        }
        // Different seeds shear the jitter apart (with these values).
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(policy.delay(1), other.delay(1));
        // The exponential term saturates at the cap.
        assert!(policy.delay(40) < Duration::from_millis(2_000 + 25));
        // base 0 = no sleeping, ever.
        let eager = RetryPolicy {
            base_ms: 0,
            ..policy
        };
        assert_eq!(eager.delay(3), Duration::ZERO);
    }

    #[test]
    fn b64_round_trips_and_rejects_malformed_input() {
        for len in [0usize, 1, 2, 3, 4, 57, 255, 1024] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let text = b64_encode(&data);
            assert_eq!(b64_decode(&text).as_deref(), Some(&data[..]), "len {len}");
        }
        for bad in ["A", "AB=A", "====", "AA=AAAAA", "A!AA"] {
            assert_eq!(b64_decode(bad), None, "`{bad}`");
        }
    }

    #[test]
    fn refusal_errors_carry_the_typed_taxonomy() {
        let mk = |kind: &str| {
            Json::Obj(vec![
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(kind.to_string())),
                ("detail".to_string(), Json::Str("x".to_string())),
            ])
        };
        assert_eq!(refusal_error(&mk("overloaded")).exit_code(), 4);
        assert_eq!(refusal_error(&mk("quota-exceeded")).exit_code(), 4);
        assert_eq!(refusal_error(&mk("draining")).exit_code(), 4);
        assert_eq!(refusal_error(&mk("idle-timeout")).exit_code(), 4);
        assert_eq!(refusal_error(&mk("slow-frame")).exit_code(), 4);
        assert_eq!(refusal_error(&mk("bad-spec")).exit_code(), 1);
        assert_eq!(refusal_error(&mk("unknown-op")).exit_code(), 1);
    }
}
