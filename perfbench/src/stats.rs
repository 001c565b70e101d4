//! Order statistics over op latencies and the common end-to-end metrics.

use crate::report::Outcome;

/// Percentiles the tail is chosen from, lowest first. The ladder stops at
/// p95: on a 2-vCPU host with noisy neighbours, p99 of the 10 ms
/// `wami_static` frames and of the sub-millisecond `runtime_serve`
/// requests measures preemption by other tenants, and its IQR/median
/// over ten runs (0.30 and 1.0) exceeds any usable bound.
pub const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 95.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least `p` percent of samples ≤ it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it, as `(percentile, value)`; the median when no ladder step
/// qualifies (runs too short for a tail).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= TAIL_BEYOND
        })
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

/// Median of unsorted values (upper median for even counts; 0 if empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Records the host end-to-end metrics shared by every workload.
///
/// `op_ms` are the measured ops' latencies, `ops_per_s` their throughput
/// and `setup_s` the durations of the run's set-ups.
pub fn record_host(out: &mut Outcome, op_ms: &[f64], ops_per_s: f64, setup_s: &[f64]) {
    let mut sorted = op_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    out.set("setup_s", median(setup_s));
    out.set("ops", sorted.len() as f64);
    if sorted.is_empty() {
        return;
    }
    out.set("ops_per_s", ops_per_s);
    out.set("op_ms_p50", percentile(&sorted, 50.0));
    let (p, value) = tail(&sorted);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    out.set("op_ms_tail", value);
    out.set("op_ms_tail_pct", p);
    out.set(
        "op_ms_tail_samples",
        sorted.len().saturating_sub(rank) as f64,
    );
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
}

/// Records the untraced and traced throughput and their difference, the
/// tracing overhead.
pub fn record_overhead(out: &mut Outcome, untraced: f64, traced: f64) {
    out.set("trace.untraced_ops_per_s", untraced);
    out.set("trace.traced_ops_per_s", traced);
    out.set("trace.overhead_ops_per_s", traced - untraced);
}

/// Simulated SoC cycles in milliseconds.
pub fn sim_ms(cycles: f64) -> f64 {
    cycles / presp_events::SOC_CLOCK_MHZ / 1000.0
}

/// Records `fail_ratio` from the outcome's counts.
pub fn record_failures(out: &mut Outcome) {
    let ratio = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.set("fail_ratio", ratio);
}

/// Records the self time of each layer as a share of op time: `self_ms`
/// maps layer → self ms per op, `op_ms` is the mean op time.
pub fn record_shares(out: &mut Outcome, self_ms: &[(&str, f64)], op_ms: f64) {
    for (layer, metric) in crate::report::LAYERS {
        let ms: f64 = self_ms
            .iter()
            .filter(|(l, _)| *l == layer)
            .fold(0.0, |acc, (_, v)| acc + v.max(0.0));
        out.set(metric, if op_ms > 0.0 { ms / op_ms } else { 0.0 });
    }
    let accounted = self_ms.iter().fold(0.0, |acc, (_, v)| acc + v.max(0.0));
    out.facts.push(format!(
        "self times per op: {} = {accounted:.4} ms of {op_ms:.4} ms op time",
        self_ms
            .iter()
            .map(|(l, v)| format!("{l} {v:.4}"))
            .collect::<Vec<_>>()
            .join(" + ")
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 has rank 90, leaving exactly 10 samples beyond it.
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v).0, 75.0);
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 3.0));
    }
}
