//! Spawn lint: where threads may start.
//!
//! **Compute crates** (`fixed`, `sparse`, `core`, `baselines`) get
//! their parallelism from exactly one place:
//! `tkspmv::fanout::fork_join`, which sizes the fan-out to the host and
//! reuses per-participant scratch. A hand-written `thread::scope` /
//! `thread::spawn` / `Builder::spawn` beside it is how a query path ends
//! up paying one OS thread per partition again, so any spawn in
//! non-test code of those crates outside `crates/core/src/fanout.rs` is
//! a finding. There is no annotation escape hatch: route the work
//! through `fork_join`.
//!
//! **Service crates** (`serve`, `fabric`, `obs`) own long-lived threads
//! — a batcher, an accept loop — so the rule there is an allow-list,
//! `crates/check/spawn_sites.txt`: one `path::function  # why` line per
//! thread start, the request-path ones marked as such. A start the list
//! does not name is a finding at the start; a line with no start behind
//! it is a finding at the line.

use std::path::{Path, PathBuf};

use crate::diag::{Lint, Report};
use crate::lexer::{tokens, LexedFile, Tok};
use crate::scan::fn_spans;

/// Crates (directories under `crates/`) on the compute path.
const COMPUTE_CRATES: &[&str] = &["fixed", "sparse", "core", "baselines"];

/// Crates whose thread starts are allow-listed.
const SERVICE_CRATES: &[&str] = &["serve", "fabric", "obs"];

/// The one compute-path module allowed to spawn.
const FANOUT: &str = "crates/core/src/fanout.rs";

/// `thread::<name>` paths that start or configure a thread.
const THREAD_PATHS: &[&str] = &["scope", "spawn", "Builder"];

/// Spawning method calls (matched as `.name(`): `Scope::spawn`,
/// `Builder::spawn`, `Builder::spawn_scoped`.
const SPAWN_METHODS: &[&str] = &["spawn", "spawn_scoped"];

/// True when the compute-path rule covers `path` (workspace-relative,
/// `/`-separated) of crate directory `krate`.
pub fn in_scope(krate: &str, path: &str) -> bool {
    COMPUTE_CRATES.contains(&krate) && path != FANOUT
}

/// One spawn-shaped expression in non-test code.
struct Site {
    /// Index of the naming token (`spawn`, `scope`, …) in the stream.
    tok: usize,
    /// How the source spells it.
    what: String,
    /// Whether a thread starts here: `thread::spawn` or a spawning
    /// method call, as opposed to `thread::scope` / `thread::Builder`,
    /// which only set one up.
    starts: bool,
}

fn sites(file: &LexedFile, toks: &[Tok]) -> Vec<Site> {
    let text_at = |j: usize| toks.get(j).map(|n| n.text.as_str());
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let site = if toks[i].text == "thread"
            && text_at(i + 1) == Some(":")
            && text_at(i + 2) == Some(":")
        {
            text_at(i + 3)
                .filter(|n| THREAD_PATHS.contains(n))
                .map(|name| Site {
                    tok: i + 3,
                    what: format!("thread::{name}"),
                    starts: name == "spawn",
                })
        } else if toks[i].text == "." && text_at(i + 2) == Some("(") {
            text_at(i + 1)
                .filter(|n| SPAWN_METHODS.contains(n))
                .map(|name| Site {
                    tok: i + 1,
                    what: format!(".{name}()"),
                    starts: true,
                })
        } else {
            None
        };
        out.extend(site.filter(|s| !file.lines[toks[s.tok].line - 1].in_test));
    }
    out
}

/// Runs the compute-path rule over one in-scope file. `path` is
/// workspace-relative.
pub fn check_file(path: &Path, file: &LexedFile, report: &mut Report) {
    let toks = tokens(file);
    for site in sites(file, &toks) {
        report.push(
            Lint::Spawns,
            path,
            toks[site.tok].line,
            format!(
                "`{}` on the compute path; fan out through \
                 `tkspmv::fanout::fork_join` instead of spawning here",
                site.what
            ),
        );
    }
}

/// Runs the allow-list rule: the thread starts of the service crates'
/// files (workspace-relative paths) against `listing`, the text of
/// `spawn_sites.txt` (`#` starts a comment; blank lines ignored).
pub fn check_listed(files: &[(PathBuf, String, LexedFile)], listing: &str, report: &mut Report) {
    let sites_txt = Path::new("crates/check/spawn_sites.txt");
    let mut listed: Vec<(&str, usize)> = listing
        .lines()
        .enumerate()
        .map(|(i, l)| (l.split('#').next().unwrap_or("").trim(), i + 1))
        .filter(|(l, _)| !l.is_empty())
        .collect();
    for (path, krate, file) in files {
        if !SERVICE_CRATES.contains(&krate.as_str()) {
            continue;
        }
        let toks = tokens(file);
        let spans = fn_spans(&toks);
        for site in sites(file, &toks).iter().filter(|s| s.starts) {
            let function = spans
                .iter()
                .filter(|f| f.body_start < site.tok && site.tok < f.body_end)
                .max_by_key(|f| f.body_start)
                .map_or("", |f| f.name.as_str());
            let name = format!("{}::{function}", path.to_string_lossy().replace('\\', "/"));
            match listed.iter().position(|(l, _)| *l == name) {
                Some(entry) => {
                    listed.remove(entry);
                }
                None => report.push(
                    Lint::Spawns,
                    path,
                    toks[site.tok].line,
                    format!(
                        "`{}` starts a thread that {} does not list; if a thread \
                         must start here, add a `{name}  # why` line",
                        site.what,
                        sites_txt.display()
                    ),
                ),
            }
        }
    }
    for (name, line) in listed {
        let message = format!("`{name}` is listed but starts no thread; delete the line");
        report.push(Lint::Spawns, sites_txt, line, message);
    }
}
