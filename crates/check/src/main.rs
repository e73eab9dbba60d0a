//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p tkspmv_check -- --all            # every pass, human output
//! cargo run -p tkspmv_check -- --all --json     # JSON findings on stdout
//! cargo run -p tkspmv_check -- --locks --spawns # selected passes
//! cargo run -p tkspmv_check -- --manifests      # drift guard only
//! cargo run -p tkspmv_check -- --api            # public surface vs api.txt
//! ```
//!
//! Exit code 0 when no un-baselined finding remains, 1 when findings
//! survive the baseline, 2 on usage/configuration errors. With `--json`
//! the machine-readable findings go to stdout (CI uploads them as an
//! artifact) and the human rendering moves to stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use tkspmv_check::{baseline, diag, find_root, run, Options};

const USAGE: &str = "usage: tkspmv_check [--all] [--alloc] [--atomics] [--locks] [--panics] \
                     [--spawns] [--manifests] [--api] [--json] [--root <dir>]";

fn main() -> ExitCode {
    let mut opts = Options::default();
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => opts = Options::all(),
            "--alloc" => opts.alloc = true,
            "--atomics" => opts.atomics = true,
            "--locks" => opts.locks = true,
            "--panics" => opts.panics = true,
            "--spawns" => opts.spawns = true,
            "--manifests" => opts.manifests = true,
            "--api" => opts.api = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root requires a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !(opts.alloc
        || opts.atomics
        || opts.locks
        || opts.panics
        || opts.spawns
        || opts.manifests
        || opts.api)
    {
        eprintln!("no passes selected\n{USAGE}");
        return ExitCode::from(2);
    }

    let root = match root_arg.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => {
            eprintln!("could not locate the workspace root; pass --root <dir>");
            return ExitCode::from(2);
        }
    };

    let report = match run(&root, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tkspmv_check: {e}");
            return ExitCode::from(2);
        }
    };
    let (kept, suppressed) = report.apply_baseline(&baseline(&root));

    if json {
        println!("{}", diag::to_json(&kept));
        for d in &kept {
            eprintln!("{d}");
        }
    } else {
        for d in &kept {
            println!("{d}");
        }
    }
    let summary = format!(
        "tkspmv_check: {} finding(s), {} baselined",
        kept.len(),
        suppressed.len()
    );
    eprintln!("{summary}");
    if kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
