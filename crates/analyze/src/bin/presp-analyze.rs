//! `presp-analyze`: the workspace static analyzer CLI.
//!
//! Runs the pattern rules, the static lock-order pass, and the held-guard
//! hazard passes described in `analyze.json` at the workspace root.
//!
//! ```text
//! presp-analyze [--json [FILE]] [--mutants] [--manifest FILE] [--root DIR]
//! ```
//!
//! `--json` emits the machine-readable findings document (to stdout, or to
//! FILE when given); `--mutants` includes acquisitions on
//! `presp-analyze: mutant` lines, which must surface the committed
//! deadlock mutants as findings. Exit status: 0 clean, 1 findings, 2 on
//! usage or manifest errors.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(presp_analyze::run_cli(&args));
}
