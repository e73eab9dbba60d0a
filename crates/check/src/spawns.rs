//! Compute-path spawn lint.
//!
//! The compute crates (`fixed`, `sparse`, `core`, `baselines`) get
//! their parallelism from exactly one place:
//! `tkspmv::fanout::fork_join`, which sizes the fan-out to the host and
//! reuses per-participant scratch. A hand-written `thread::scope` /
//! `thread::spawn` / `Builder::spawn` beside it is how a query path ends
//! up paying one OS thread per partition again, so any spawn in
//! non-test code of those crates outside `crates/core/src/fanout.rs` is
//! a finding. There is no annotation escape hatch: route the work
//! through `fork_join`. (The serving, fabric and observability crates
//! own long-lived service threads and are out of scope.)

use std::path::Path;

use crate::diag::{Lint, Report};
use crate::lexer::{tokens, LexedFile};

/// Crates (directories under `crates/`) on the compute path.
const COMPUTE_CRATES: &[&str] = &["fixed", "sparse", "core", "baselines"];

/// The one module allowed to spawn.
const FANOUT: &str = "crates/core/src/fanout.rs";

/// `thread::<name>` paths that start or configure a thread.
const THREAD_PATHS: &[&str] = &["scope", "spawn", "Builder"];

/// Spawning method calls (matched as `.name(`): `Scope::spawn`,
/// `Builder::spawn`, `Builder::spawn_scoped`.
const SPAWN_METHODS: &[&str] = &["spawn", "spawn_scoped"];

/// True when the lint covers `path` (workspace-relative, `/`-separated)
/// of crate directory `krate`.
pub fn in_scope(krate: &str, path: &str) -> bool {
    COMPUTE_CRATES.contains(&krate) && path != FANOUT
}

/// Runs the lint over one in-scope file. `path` is workspace-relative.
pub fn check_file(path: &Path, file: &LexedFile, report: &mut Report) {
    let toks = tokens(file);
    let fire = |line: usize, what: &str, report: &mut Report| {
        if file.lines[line - 1].in_test {
            return;
        }
        report.push(
            Lint::Spawns,
            path,
            line,
            format!(
                "`{what}` on the compute path; fan out through \
                 `tkspmv::fanout::fork_join` instead of spawning here"
            ),
        );
    };
    let text_at = |j: usize| toks.get(j).map(|n| n.text.as_str());
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.text == "thread" && text_at(i + 1) == Some(":") && text_at(i + 2) == Some(":") {
            if let Some(name) = text_at(i + 3).filter(|n| THREAD_PATHS.contains(n)) {
                fire(toks[i + 3].line, &format!("thread::{name}"), report);
            }
            continue;
        }
        if t.text == "." && text_at(i + 2) == Some("(") {
            if let Some(name) = text_at(i + 1).filter(|n| SPAWN_METHODS.contains(n)) {
                fire(toks[i + 1].line, &format!(".{name}()"), report);
            }
        }
    }
}
