//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all four) and prints a human-readable report
//! followed, as the last line of standard output, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs report the
//! per-layer metrics and write their spans under `perfbench/out/`.

use perfbench::{host, Config, WORKLOADS};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        wrong_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::guard() {
        eprintln!("perfbench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let mut lines = Vec::new();
    for name in names {
        println!("# host: {}", host::facts(name, &config));
        match perfbench::run(name, &config) {
            Ok(outcome) => {
                print!("{}", outcome.render());
                lines.push(outcome.result_line(config.trace));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // With `all`, every workload's result line is printed, the last one
    // closing the output.
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
