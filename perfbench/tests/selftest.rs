//! Self-tests: tiny runs of every workload report every named metric with
//! its unit, a deliberately wrong reference is caught, and the
//! emulated-latency knob is refused.

use perfbench::report::{END_TO_END, PER_LAYER, REPORT_ONLY};
use perfbench::{run, Config, WORKLOADS};
use std::process::Command;

fn tiny(trace: bool, wrong_reference: bool) -> Config {
    Config {
        seed: 5,
        seconds: 0.3,
        trace,
        tiny: true,
        wrong_reference,
    }
}

#[test]
fn tiny_runs_print_every_named_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run(workload, &tiny(trace, false)).expect("tiny run");
            assert!(out.correct(), "{workload}: {}", out.render());
            let text = out.render();
            for (name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain(&REPORT_ONLY) {
                assert!(
                    text.lines().any(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(name) && words.last() == Some(unit)
                    }),
                    "{workload}: `{name}` with unit `{unit}` missing from\n{text}"
                );
            }
            let line = out.result_line(trace);
            let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in list {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": "))
                        && line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: `{name}` missing from the result line {line}"
                );
            }
        }
    }
}

#[test]
fn every_declared_time_and_end_to_end_metric_is_measured() {
    for workload in WORKLOADS {
        let plain = run(workload, &tiny(false, false)).expect("tiny run");
        for (name, _) in END_TO_END {
            let v = plain.values.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{workload}: end-to-end `{name}` = {v}");
        }
        let traced = run(workload, &tiny(true, false)).expect("tiny traced run");
        for (name, unit) in PER_LAYER {
            if matches!(unit, "ms" | "MB/s") {
                let v = traced.values.get(name).copied().unwrap_or(0.0);
                assert!(v > 0.0, "{workload}: per-layer `{name}` = {v}");
            }
        }
    }
}

#[test]
fn a_wrong_reference_raises_fail_ratio() {
    for workload in WORKLOADS {
        let out = run(workload, &tiny(false, true)).expect("tiny run");
        assert!(out.failed > 0, "{workload}: wrong reference not caught");
        assert!(out.values["fail_ratio"] > 0.0);
        assert!(!out.correct());
        assert!(out.result_line(false).starts_with("{\"correct\": false"));
    }
}

#[test]
fn refuses_to_run_with_the_eval_delay_knob() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "wami_swap", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .env("PRESP_BENCH_EVAL_DELAY_MICROS", "2000")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed a result");
    assert!(String::from_utf8_lossy(&out.stderr).contains("PRESP_BENCH_EVAL_DELAY_MICROS"));
}

#[test]
fn rejects_bad_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env_remove("PRESP_BENCH_EVAL_DELAY_MICROS")
        .output()
        .expect("benchmark binary runs");
    assert_ne!(out.status.code(), Some(0));
}
