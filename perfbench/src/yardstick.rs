//! Host normalisation: a fixed reference run, timed next to each
//! measurement on the same CPU.
//!
//! The shared host this benchmark was built on runs the same code up to
//! 2x slower for seconds to minutes at a time, on each CPU
//! independently. Raw host times of one seed spread by 10-25% between
//! runs there. The yardstick is the frozen reference interpreter
//! (`ReferenceMachine`, kept as the differential oracle) running one
//! fixed program under a no-op sink: it slows down with the host the way
//! `pp`'s interpreter does, and timed right before each profile call the
//! normalised suite time spread by about 3% between processes.
//!
//! A host-normalised time is `raw × REFERENCE_NS_PER_UOP / measured`:
//! what the measurement would have read with the yardstick at its
//! reference speed. The reference interpreter keeps frozen copies of the
//! simulated memory and caches, but shares `pp_usim`'s branch and target
//! predictors (`predict`), code layout (`layout`), event totals
//! (`metrics`) and `MachineConfig` (`config`) with the interpreter under
//! test. A change to one of those moves the yardstick too and is partly
//! cancelled in every normalised time, so it must be judged on the raw
//! times the detail lines print.

use std::time::Instant;

use pp_ir::Program;
use pp_usim::reference::ReferenceMachine;
use pp_usim::{MachineConfig, NullSink};

/// Yardstick speed normalised times are scaled to, in host ns per
/// simulated µop (about its speed on the build host's fast CPU state).
pub const REFERENCE_NS_PER_UOP: f64 = 16.0;

/// The yardstick program: `129.compress` at this scale, with its own
/// seed, whatever the workload seed. A run takes a few milliseconds.
const YARDSTICK_SCALE: f64 = 0.05;

/// The yardstick: a fixed program for the reference interpreter.
pub struct Yardstick {
    program: Program,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    /// Builds the yardstick program.
    pub fn new() -> Yardstick {
        let spec = pp_workloads::spec_for("129.compress")
            .expect("129.compress is a suite program")
            .scaled(YARDSTICK_SCALE);
        Yardstick {
            program: pp_workloads::build(&spec),
        }
    }

    /// Runs the yardstick once and returns the host's current speed in
    /// ns per simulated µop.
    ///
    /// # Panics
    ///
    /// If the fixed yardstick program faults, which is a bug.
    pub fn measure(&self) -> f64 {
        let mut machine = ReferenceMachine::new(&self.program, MachineConfig::default());
        let t = Instant::now();
        let run = machine
            .run(&mut NullSink)
            .expect("the yardstick program runs");
        t.elapsed().as_secs_f64() * 1e9 / run.uops.max(1) as f64
    }
}

/// `secs` measured while the yardstick ran at `ns_per_uop`, scaled to
/// the reference speed.
pub fn normalise(secs: f64, ns_per_uop: f64) -> f64 {
    secs * REFERENCE_NS_PER_UOP / ns_per_uop
}

/// Neighbours on each side [`smoothed`] takes the median over.
pub const SMOOTHING: usize = 2;

/// Each speed replaced by the median of it and its [`SMOOTHING`]
/// neighbours on each side. One yardstick run can read slow for reasons
/// of its own; a slow spell of the host lasts many runs.
pub fn smoothed(speeds: &[f64]) -> Vec<f64> {
    (0..speeds.len())
        .map(|i| {
            let lo = i.saturating_sub(SMOOTHING);
            let hi = (i + SMOOTHING + 1).min(speeds.len());
            crate::stats::median(&speeds[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_ignores_a_lone_outlier() {
        let s = smoothed(&[3.0, 3.0, 9.0, 3.0, 3.0, 6.0, 6.0, 6.0]);
        assert_eq!(s[2], 3.0);
        assert_eq!(s[7], 6.0);
        assert_eq!(smoothed(&[]), Vec::<f64>::new());
        assert_eq!(smoothed(&[4.0]), vec![4.0]);
    }

    #[test]
    fn normalising_scales_to_the_reference_speed() {
        assert_eq!(normalise(2.0, REFERENCE_NS_PER_UOP), 2.0);
        assert_eq!(normalise(2.0, 2.0 * REFERENCE_NS_PER_UOP), 1.0);
        assert!(Yardstick::new().measure() > 0.0);
    }
}
