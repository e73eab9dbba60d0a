//! The tkspmv performance ledger. See `README.md` in this directory.
//!
//! ```text
//! tkspmv_benchmark --workload W --seed N --seconds S --trace 0|1   one workload, result as the last line (driver form)
//! tkspmv_benchmark run [--seed N] [--seconds S] [--trace] [--quick] [--out FILE]
//! tkspmv_benchmark repeat [--seed N] [--seconds S] [--quick]
//! tkspmv_benchmark compare BASE.json NEW.json
//! tkspmv_benchmark spec                        prints BENCHMARK.json from the tables in spec.rs
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

mod host;
mod input;
mod json;
mod ledger;
mod probes;
mod report;
mod span;
mod spec;
mod stats;
mod verify;
mod workload;

use input::{Scale, DEFAULT_SEED};
use ledger::{Plan, WorkloadResult};
use report::Verdict;

/// The `ledger` directory beside the executable — inside the build
/// directory, so a run never writes outside its checkout. Span files
/// (`trace-<workload>.jsonl`) are written here.
fn ledger_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("ledger");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A temporary file (a snapshot) in [`ledger_dir`], under a name unique
/// to this call, so concurrent runs and the two instances of one
/// workload never share a file.
fn scratch_file(name: &str) -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    // Relaxed: the counter only has to hand out distinct numbers.
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(ledger_dir()?.join(format!("{}-{n}-{name}", std::process::id())))
}

/// Parsed command-line options shared by the run-like commands.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|_| format!("--seed takes a whole number, got {text:?}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes a value"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => o.seed = parse_seed(&value("--seed")?)?,
            "--seconds" => {
                let text = value("--seconds")?;
                o.seconds = Some(
                    text.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| {
                            format!("--seconds takes a positive number, got {text:?}")
                        })?,
                );
            }
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => o.quick = true,
            "--trace" => {
                // `--trace 0|1` in the driver form, a bare flag in `run`.
                o.traced = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => o.files.push(file.to_string()),
        }
    }
    Ok(o)
}

fn plan(o: &Options) -> Plan {
    let scale = if o.quick { Scale::Quick } else { Scale::Full };
    let default_seconds = match scale {
        Scale::Full => spec::RUN_SECONDS as f64,
        Scale::Quick => ledger::ROUNDS as f64,
    };
    Plan {
        seed: o.seed,
        scale,
        seconds: o.seconds.unwrap_or(default_seconds),
        traced: o.traced,
    }
}

fn print_fingerprint(f: &host::Fingerprint, plan: &Plan) {
    println!(
        "# host: nproc {}, cpu {:?}, {}, git {}, seed {:#x}, {} s per workload{}",
        f.nproc,
        f.cpu_model,
        f.rustc,
        f.git_rev,
        plan.seed,
        plan.seconds,
        if plan.traced { ", traced" } else { "" }
    );
}

fn all_correct(results: &[WorkloadResult]) -> bool {
    for r in results.iter().filter(|r| !r.correct) {
        eprintln!(
            "{}: INCORRECT (answer mismatch, recall below {}, failed share above {}, or unattributed time above {})",
            r.workload,
            spec::RECALL_FLOOR,
            spec::FAILED_SHARE_BOUND,
            spec::UNATTRIBUTED_BOUND
        );
    }
    results.iter().all(|r| r.correct)
}

/// The driver form: one workload, the result as the last line.
fn driver(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().expect("checked by the caller");
    let plan = plan(o);
    print_fingerprint(&host::Fingerprint::read(), &plan);
    let results = ledger::run(&plan, &[name])?;
    let result = &results[0];
    report::print_metrics(result);
    println!("{}", report::driver_line(result));
    Ok(all_correct(&results))
}

fn run_suite(plan: &Plan) -> Result<Vec<WorkloadResult>, String> {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    let results = ledger::run(plan, &names)?;
    for r in &results {
        report::print_metrics(r);
    }
    Ok(results)
}

fn run(o: &Options) -> Result<bool, String> {
    let plan = plan(o);
    let fingerprint = host::Fingerprint::read();
    print_fingerprint(&fingerprint, &plan);
    let results = run_suite(&plan)?;
    if let Some(path) = &o.out {
        std::fs::write(path, report::result_file(&fingerprint, &plan, &results))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    }
    Ok(all_correct(&results))
}

/// Runs the suite twice on this build and holds every pair to its bound.
fn repeat(o: &Options) -> Result<bool, String> {
    let plan = Plan {
        traced: false,
        ..plan(o)
    };
    let fingerprint = host::Fingerprint::read();
    print_fingerprint(&fingerprint, &plan);
    let mut files = Vec::new();
    let mut correct = true;
    for pass in ["first", "second"] {
        println!("# {pass} pass");
        let results = run_suite(&plan)?;
        correct &= all_correct(&results);
        files.push(json::parse(&report::result_file(
            &fingerprint,
            &plan,
            &results,
        ))?);
    }
    let rows = report::compare(&files[0], &files[1]);
    report::print_rows(&rows);
    let outside: Vec<_> = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Improved | Verdict::Regressed))
        .collect();
    for r in &outside {
        eprintln!(
            "{} {}: two runs of one build disagree",
            r.workload, r.metric
        );
    }
    Ok(correct && outside.is_empty())
}

fn compare(o: &Options) -> Result<bool, String> {
    let [base, new] = o.files.as_slice() else {
        return Err("compare takes two result files: BASE.json NEW.json".to_string());
    };
    let read = |path: &String| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&read(base)?, &read(new)?);
    report::print_rows(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "repeat" | "compare" | "spec")) => (c, &args[1..]),
        _ => ("driver", &args[..]),
    };
    let outcome = parse_options(rest).and_then(|o| match command {
        "run" => run(&o),
        "repeat" => repeat(&o),
        "compare" => compare(&o),
        "spec" => {
            print!("{}", spec::render_benchmark_json());
            Ok(true)
        }
        _ if o.workload.is_some() => driver(&o),
        _ => Err("usage: --workload W --seed N --seconds S --trace 0|1 | run | repeat | compare BASE NEW | spec".to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_and_run_flag_forms_both_parse() {
        let o = parse_options(&strings(&[
            "--workload",
            "direct_b1",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]))
        .expect("driver form");
        assert_eq!(o.workload.as_deref(), Some("direct_b1"));
        assert_eq!((o.seed, o.seconds, o.traced), (7, Some(20.0), false));
        let o = parse_options(&strings(&["--trace", "1", "--seed", "0xdac2021"])).expect("trace 1");
        assert!(o.traced);
        assert_eq!(o.seed, DEFAULT_SEED);
        let o = parse_options(&strings(&["--trace", "--quick", "--out", "x.json"])).expect("bare");
        assert!(o.traced && o.quick);
        assert_eq!(o.out, Some(PathBuf::from("x.json")));
        assert!(parse_options(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_options(&strings(&["--seed"])).is_err());
        assert!(parse_options(&strings(&["--nope"])).is_err());
    }

    fn sources() -> Vec<(PathBuf, String)> {
        let mut files = vec![];
        let mut dirs = vec![PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("src is readable") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).expect("source is readable");
                    files.push((path, text));
                }
            }
        }
        assert!(files.len() >= 10, "walked {} files", files.len());
        files
    }

    /// The durable-API rule: the benchmark lives in a directory later
    /// PRs may not edit, so it may import only entry points those PRs
    /// are not planning to delete (README, "Durable-API rule").
    #[test]
    fn sources_import_only_the_durable_api() {
        const CRATES_AND_MODULES: [&str; 12] = [
            "use",
            "tkspmv",
            "tkspmv_fixed",
            "tkspmv_sparse",
            "tkspmv_baselines",
            "tkspmv_serve",
            "tkspmv_fabric",
            "tkspmv_obs",
            "backend",
            "gen",
            "cpu",
            "wire",
        ];
        const DURABLE: [&str; 42] = [
            // engines and their entry points
            "TopKBackend",
            "Accelerator",
            "LoadedMatrix",
            "PreparedMatrix",
            "QueryBatch",
            "QueryTier",
            "PrunedBackend",
            "CpuTopK",
            "run_core_batch_with_scratch",
            "BatchScratch",
            "Fidelity",
            "quantize_vector",
            "TopKTracker",
            "TopKResult",
            // formats and data
            "BsCsr",
            "PacketLayout",
            "PruneIndex",
            "PruneBits",
            "Q1_19",
            "Csr",
            "DenseVector",
            "SyntheticConfig",
            "NnzDistribution",
            "query_vector",
            // serving and the fabric
            "TopKService",
            "BatchPolicy",
            "Ticket",
            "ServiceMetrics",
            "DeltaCollection",
            "NodeServer",
            "NodeClient",
            "Router",
            "RouterConfig",
            "RoutedResult",
            "ShardSpec",
            "Request",
            "Response",
            "encode_frame_into",
            "read_frame",
            "WIRE_VERSION",
            // observability types that ride on results
            "Registry",
            "QueryTrace",
        ];
        const RIDE_ALONG: [&str; 2] = ["Stage", "TraceId"];
        let mut checked = 0;
        for (path, text) in sources() {
            for statement in text
                .split(';')
                .filter_map(|s| s.split("\nuse tkspmv").nth(1))
            {
                let imported = statement
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .filter(|w| !w.is_empty() && !CRATES_AND_MODULES.contains(w));
                for item in imported {
                    // `use tkspmv_x::…` lost its crate suffix to the split.
                    if item.starts_with('_') {
                        continue;
                    }
                    assert!(
                        DURABLE.contains(&item) || RIDE_ALONG.contains(&item),
                        "{} imports {item}, which the durable-API rule does not list",
                        path.display()
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 40, "the scan found only {checked} imports");
    }

    /// ... and none of the items ROADMAP item 4 marks for deletion, by
    /// any path.
    #[test]
    fn sources_use_nothing_marked_for_deletion() {
        const DOOMED: [&str; 13] = [
            "run_core(",
            "run_core::",
            "run_core_with_scratch",
            "CoreScratch",
            "run_multicore",
            "trace_core",
            "PacketTrace",
            "BitReader",
            "BoundedMinHeap",
            "snapshot_payload",
            "restore_payload",
            "snapshot_companion",
            "snapshot_family",
        ];
        for (path, text) in sources() {
            // This test names the doomed items; skip its own table.
            let text = text
                .split("const DOOMED")
                .next()
                .expect("split yields a first piece");
            for item in DOOMED {
                assert!(
                    !text.contains(item),
                    "{} uses {item}, which ROADMAP item 4 plans to delete",
                    path.display()
                );
            }
        }
    }

    /// `--quick` smoke of all four workloads, untraced then traced:
    /// every path is set up, verified, measured and torn down, every
    /// defined metric is emitted, and every answer check holds.
    #[test]
    fn quick_smoke_runs_every_workload_end_to_end() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        for traced in [false, true] {
            let plan = Plan {
                seed: 0x5eed,
                scale: Scale::Quick,
                seconds: ledger::ROUNDS as f64,
                traced,
            };
            let results = ledger::run(&plan, &names).expect("suite runs");
            assert_eq!(results.len(), names.len());
            let defined: Vec<&str> = if traced {
                spec::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                spec::END_TO_END.iter().map(|m| m.name).collect()
            };
            for r in &results {
                let emitted: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                assert_eq!(emitted, defined, "{}", r.workload);
                assert!(r.correct, "{} incorrect: {:?}", r.workload, r.metrics);
                assert!(r.attempted > 0 && r.failed == 0, "{}", r.workload);
                assert!(
                    r.metrics.iter().all(|m| m.1.is_finite()),
                    "{}: {:?}",
                    r.workload,
                    r.metrics
                );
                if !traced {
                    assert!(
                        r.metrics.iter().all(|m| m.1 > 0.0),
                        "end-to-end metrics are never 0: {} {:?}",
                        r.workload,
                        r.metrics
                    );
                }
            }
        }
    }
}
