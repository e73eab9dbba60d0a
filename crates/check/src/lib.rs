//! `tkspmv_check` — the workspace invariant checker.
//!
//! A rust-tidy-style static analysis pass over `crates/`, holding the
//! repo's rules that neither the compiler nor a test holds, on *every*
//! path, not just the benchmarked ones:
//!
//! - **atomics** — every `Ordering::Relaxed`/`SeqCst` site carries an
//!   `// ordering: <why this is sound>` argument;
//! - **locks** — the declared lock hierarchy in `locks.toml` is
//!   enforced by a per-function acquisition-nesting scan over the
//!   cross-crate lock graph;
//! - **api** — the list of `pub` items must equal the checked-in
//!   `api.txt`, so every change to the public surface shows in a diff.
//!
//! Run as `cargo run -p tkspmv_check -- --all` (CI gates on it); add
//! `--json` for machine output.
//!
//! The [`manifests`] rules (workspace-pinned dependencies, no cargo
//! feature, the member list matching the disk) run from one entry
//! point, `eval`'s `workspace_guard` test, so `cargo test` holds them.
//! Cargo itself refuses a dependency cycle, which keeps the crates
//! layered.
//!
//! The allocation rule of the query path (a warm query allocates
//! nothing that grows with the stream) is held at run time, by the
//! counting allocator of `tests/zero_alloc.rs`.
//!
//! Two rules live in the compiler instead, as clippy lints over library
//! code (CI's lib-only clippy step): a panicking call
//! (`unwrap`/`expect`/`panic!`/…) carries an
//! `#[expect(clippy::…, reason = "invariant: …")]`, and a thread start
//! (a `disallowed-methods` entry of the root `clippy.toml`) carries an
//! `#[expect(clippy::disallowed_methods, reason = "…")]`. The compute
//! crates forbid that lint everywhere but the compute pool
//! (`tkspmv::fanout`), so no `#[expect]` admits a thread start there.
//! An `#[expect]` whose lint no longer fires fails the step too.

pub mod api;
pub mod atomics;
pub mod diag;
pub mod lexer;
pub mod locks;
pub mod manifests;
pub mod scan;

use std::path::{Path, PathBuf};

use diag::Report;

/// Which passes to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Atomic-ordering audit.
    pub atomics: bool,
    /// Lock-hierarchy detector.
    pub locks: bool,
    /// Public-surface ratchet.
    pub api: bool,
}

impl Options {
    /// Every pass on.
    pub fn all() -> Self {
        Self {
            atomics: true,
            locks: true,
            api: true,
        }
    }
}

fn crate_of(path: &Path) -> String {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    match (comps.next().as_deref(), comps.next()) {
        (Some("crates"), Some(name)) => name.into_owned(),
        _ => String::new(),
    }
}

/// Runs the selected passes over the workspace at `root`, returning the
/// report.
///
/// # Errors
///
/// Configuration problems (unreadable sources, malformed `locks.toml`)
/// are errors; findings are diagnostics in the report.
pub fn run(root: &Path, opts: Options) -> Result<Report, String> {
    let mut report = Report::default();
    let sources =
        scan::workspace_sources(root).map_err(|e| format!("walking workspace sources: {e}"))?;
    let mut lexed: Vec<(PathBuf, String, lexer::LexedFile)> = Vec::new();
    for rel in sources {
        let text = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("reading {}: {e}", rel.display()))?;
        let krate = crate_of(&rel);
        lexed.push((rel, krate, lexer::lex(&text)));
    }
    if opts.atomics {
        for (rel, _, file) in &lexed {
            atomics::check_file(rel, file, &mut report);
        }
    }
    if opts.locks {
        let text = std::fs::read_to_string(root.join("crates/check/locks.toml"))
            .map_err(|e| format!("reading locks.toml: {e}"))?;
        let cfg = locks::parse_config(&text)?;
        locks::check(&lexed, &cfg, &mut report);
    }
    if opts.api {
        let listing = std::fs::read_to_string(root.join("crates/check/api.txt"))
            .map_err(|e| format!("reading api.txt: {e}"))?;
        let mut found = Vec::new();
        for (rel, _, file) in &lexed {
            for (name, line) in api::items(&api::module_path(rel), file) {
                found.push((name, rel.clone(), line));
            }
        }
        api::check(found, &listing, &mut report);
    }
    Ok(report)
}

/// Locates the workspace root: `start` or the nearest ancestor holding
/// a `Cargo.toml` with a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
