//! Metric names, units and the printed result.
//!
//! `END_TO_END` and `PER_LAYER` are the metrics `BENCHMARK.json` declares:
//! every workload reports all of them, the first list on untraced runs
//! and the second on traced runs. `REPORT_ONLY` holds the remaining
//! named metrics; they are printed for every workload (`n/a` where the
//! workload has no such quantity) but left out of the result line,
//! because they are zero on a healthy run or exist on some workloads
//! only.

use crate::spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_op_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("runtime.reconfig_ms", "ms"),
    ("runtime.reconfigs_per_op", "count"),
    ("runtime.driver_hit_ratio", "ratio"),
    ("runtime.bitstream_cache_hit_ratio", "ratio"),
    ("runtime.scrub_ms", "ms"),
    ("runtime.retries", "count"),
    ("runtime.cpu_fallbacks", "count"),
    ("sched.coalesce_ratio", "ratio"),
    ("sched.max_queue_depth", "count"),
    ("sched.prepare_share", "ratio"),
    ("sched.gate_wait_share", "ratio"),
    ("sched.commit_share", "ratio"),
    ("soc.reconfig_cycles_per_op", "cycles"),
    ("soc.icap_contention_cycles", "cycles"),
    ("soc.dram_contention_cycles", "cycles"),
    ("soc.noc_contention_cycles", "cycles"),
    ("soc.noc_transfers_per_op", "count"),
    ("soc.scrub_wait_cycles_per_op", "cycles"),
    ("soc.mj_per_op", "mJ"),
    ("fpga.icap_load_ms", "ms"),
    ("fpga.icap_mb_per_s", "MB/s"),
    ("fpga.pbs_kb_per_op", "KB"),
    ("events.records_per_op", "count"),
    ("self.core", "ratio"),
    ("self.cad", "ratio"),
    ("self.floorplan", "ratio"),
    ("self.runtime", "ratio"),
    ("self.sched", "ratio"),
    ("self.fpga", "ratio"),
    ("self.wami", "ratio"),
    ("self.events", "ratio"),
    ("self.bench", "ratio"),
    ("trace.overhead_ops_per_s", "1/s"),
];

/// Named metrics printed but not part of the result line: `(name, unit)`.
pub const REPORT_ONLY: [(&str, &str); 24] = [
    ("fail_ratio", "ratio"),
    ("ops", "count"),
    ("op_ms_tail_pct", "%"),
    ("op_ms_tail_samples", "count"),
    ("sim_frame_ms", "ms"),
    ("sim_frame_mj", "mJ"),
    ("sim_compile_min", "min"),
    ("runtime.frame_self_ms", "ms"),
    ("sched.submit_us", "us"),
    ("sched.prepare_us", "us"),
    ("sched.gate_wait_us", "us"),
    ("sched.commit_us", "us"),
    ("sched.queue_wait_us_p50", "us"),
    ("sched.queue_wait_us_p99", "us"),
    ("cad.pbs_build_ms", "ms"),
    ("cad.model_ms", "ms"),
    ("floorplan.plan_ms", "ms"),
    ("core.flow_self_ms", "ms"),
    ("core.deploy_ms", "ms"),
    ("wami.kernel_ms", "ms"),
    ("wami.scene_ms", "ms"),
    ("events.drain_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
];

/// The layers whose self time is reported as a share of op time, with
/// the metric that carries the share.
pub const LAYERS: [(&str, &str); 9] = [
    ("core", "self.core"),
    ("cad", "self.cad"),
    ("floorplan", "self.floorplan"),
    ("runtime", "self.runtime"),
    ("sched", "self.sched"),
    ("fpga", "self.fpga"),
    ("wami", "self.wami"),
    ("events", "self.events"),
    ("bench", "self.bench"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Ops attempted in the measured phases.
    pub attempted: u64,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// Run-wide checks (accounting invariants) that failed.
    pub run_errors: Vec<String>,
    /// Every measured metric by name; names come from the lists above.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form facts printed with the report (design set, host, ...).
    pub facts: Vec<String>,
}

impl Outcome {
    /// A fresh outcome for `workload`.
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            ..Outcome::default()
        }
    }

    /// Records metric `name`; panics on a name no list declares, so a typo
    /// cannot silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not declared in report.rs"
        );
        self.values.insert(name, value);
    }

    /// Whether every op passed its check and every run-wide check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_errors.is_empty() && self.attempted > 0
    }

    /// The human-readable report: every named metric with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.workload);
        for fact in &self.facts {
            let _ = writeln!(out, "  # {fact}");
        }
        let lists: [(&str, &[(&str, &str)]); 3] = [
            ("end-to-end", &END_TO_END),
            ("per-layer", &PER_LAYER),
            ("report-only", &REPORT_ONLY),
        ];
        for (title, list) in lists {
            let _ = writeln!(out, "  [{title}]");
            for (name, unit) in list {
                match self.values.get(name) {
                    Some(v) => {
                        let _ = writeln!(out, "  {name:<34} {v:>16.6} {unit}");
                    }
                    None => {
                        let _ = writeln!(out, "  {name:<34} {:>16} {unit}", "n/a");
                    }
                }
            }
        }
        for e in &self.run_errors {
            let _ = writeln!(out, "  ! {e}");
        }
        let _ = writeln!(
            out,
            "  attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// The result line: `END_TO_END` metrics untraced, `PER_LAYER` traced.
    /// A metric the workload did not set reads 0.
    pub fn result_line(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit a metric is declared with, if any list declares it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(REPORT_ONLY.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Writes a traced run's spans to `perfbench/out/spans-<workload>-<seed>.json`.
///
/// # Errors
///
/// Returns the I/O error as a message.
pub fn write_spans(workload: &str, config: &crate::Config, spans: &Spans) -> Result<(), String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/spans-{workload}-{}.json", config.seed);
    let header = crate::host::facts(workload, config);
    std::fs::write(&path, spans.to_json(&header)).map_err(|e| format!("{path}: {e}"))
}
