//! Host facts, the emulated-latency guard and peak memory.

use crate::Config;

/// The scheduler knob that makes each evaluation sleep; a benchmark run
/// with it set would time `thread::sleep`, not the program.
pub const EVAL_DELAY_KNOB: &str = "PRESP_BENCH_EVAL_DELAY_MICROS";

/// Refuses to run with the emulated-latency knob set.
///
/// # Errors
///
/// Returns the message to print when the knob is present.
pub fn guard() -> Result<(), String> {
    match std::env::var_os(EVAL_DELAY_KNOB) {
        Some(v) => Err(format!(
            "{EVAL_DELAY_KNOB}={} is set: the scheduler would sleep in every \
             evaluation and the benchmark would measure thread::sleep, not the \
             program; unset it and run again",
            v.to_string_lossy()
        )),
        None => Ok(()),
    }
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One line of host facts, as JSON.
pub fn facts(workload: &str, config: &Config) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"nproc\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}}}",
        nproc(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC_VERSION"),
        config.seed,
        config.seconds,
        config.trace,
        config.tiny,
    )
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
