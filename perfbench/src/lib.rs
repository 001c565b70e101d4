//! End-to-end and per-layer benchmark of the PR-ESP reproduction.
//!
//! Four seeded, closed-loop workloads drive the workspace crates through
//! their public APIs: `wami_swap` and `wami_static` deploy WAMI SoCs and
//! feed them frames, `flow_build` runs the RTL-to-bitstream flow, and
//! `runtime_serve` serves reconfigure/execute requests from two client
//! threads. See `perfbench/README.md` for what each workload stresses and
//! which layer metric should move which end-to-end metric.

pub mod flow;
pub mod host;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod wami;

use report::Outcome;
use std::time::Duration;

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["wami_swap", "wami_static", "flow_build", "runtime_serve"];

/// One run's settings, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Measured time of one run.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Shrunk inputs and a single set-up, for the self-tests.
    pub tiny: bool,
    /// Perturbs every reference so each output check must fail.
    pub wrong_reference: bool,
}

impl Config {
    /// Set-ups made per run, `full` outside the self-tests; `setup_s` is
    /// their median. Cheaper set-ups repeat more, so the median is steady.
    pub fn setups(&self, full: usize) -> usize {
        if self.tiny {
            1
        } else {
            full
        }
    }

    /// Measured time of the untraced and the traced phase. A traced run
    /// splits its time between both, so it can report tracing overhead.
    pub fn phases(&self) -> (Duration, Option<Duration>) {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (total / 2, Some(total / 2))
        } else {
            (total, None)
        }
    }
}

/// Runs one workload and returns its outcome.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a failed set-up.
pub fn run(workload: &str, config: &Config) -> Result<Outcome, String> {
    match workload {
        "wami_swap" => wami::run(wami::Variant::Swap, config),
        "wami_static" => wami::run(wami::Variant::Static, config),
        "flow_build" => flow::run(config),
        "runtime_serve" => serve::run(config),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {} or all)",
            WORKLOADS.join(", ")
        )),
    }
}
