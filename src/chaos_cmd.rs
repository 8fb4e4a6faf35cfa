//! The hidden `pp chaos` subcommand: a deterministic fault-injecting
//! TCP proxy ([`pp::profiler::ChaosProxy`]) for soak-testing the serve
//! transport. Point clients at `--listen`, point the proxy at the real
//! daemon with `--upstream`, and give it a `--plan` of faults assigned
//! round-robin by accept order (rotated by `--seed`):
//!
//! ```text
//! pp chaos --listen 127.0.0.1:0 --upstream tcp:127.0.0.1:7070 \
//!     --plan ok,delay:25,tear:80,reset:1,blackhole --seed 3
//! ```
//!
//! The proxy prints its bound address (so `--listen :0` works in
//! scripts), then runs until SIGINT/SIGTERM. Faults only ever touch the
//! transport — bytes that do arrive are unmodified — so a client
//! surviving the plan must do it with retries and typed errors, not
//! luck.

use std::io::Write as _;
use std::time::Duration;

use pp::profiler::chaos::{ChaosProxy, FaultPlan};
use pp::profiler::{BindAddr, PpError};
use pp::usim::CancelToken;

use crate::Args;

/// Runs the proxy until a signal arrives.
///
/// # Errors
///
/// [`PpError::Usage`] for a missing address or an unparsable plan,
/// [`PpError::Io`] when the listen address cannot be bound.
pub fn run_chaos(args: &Args) -> Result<(), PpError> {
    args.operands::<0>()?;
    let listen = args
        .str("--listen")
        .ok_or_else(|| PpError::Usage("pp chaos needs --listen HOST:PORT".into()))?;
    let upstream = args
        .str("--upstream")
        .ok_or_else(|| PpError::Usage("pp chaos needs --upstream ADDR".into()))?;
    let seed = args.get("--seed").unwrap_or(0);
    let plan = FaultPlan::parse(args.str("--plan").unwrap_or("ok")).map_err(PpError::Usage)?;
    let upstream = BindAddr::parse(upstream);
    let mut proxy = ChaosProxy::start(listen, upstream.clone(), plan.clone(), seed)
        .map_err(|e| PpError::io(listen, e))?;
    println!(
        "chaos proxy on tcp://{} -> {upstream} (seed {seed})",
        proxy.addr()
    );
    for (i, fault) in plan.faults().iter().enumerate() {
        println!("  slot {i}: {fault}");
    }
    let _ = std::io::stdout().flush();

    let stop = CancelToken::new();
    crate::signals::install(stop.clone(), stop.clone());
    while !stop.is_cancelled() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let accepted = proxy.accepted();
    proxy.stop();
    println!("chaos proxy stopped after {accepted} connection(s)");
    Ok(())
}
